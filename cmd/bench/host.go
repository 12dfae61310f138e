package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// hostInfo is recorded beside every report, so a number can always be
// read against the machine that produced it.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibBeforeMS and CalibAfterMS time the same fixed integer kernel
	// before and after the timed rounds. StolenCPUShare is the share of
	// the timed rounds' CPU capacity the hypervisor gave to other guests.
	// HostDrift is set when the calibrations differ by more than 5 % or
	// more than maxStolenShare was stolen: the host, not the program,
	// moved.
	CalibBeforeMS  float64 `json:"calib_before_ms"`
	CalibAfterMS   float64 `json:"calib_after_ms"`
	StolenCPUShare float64 `json:"stolen_cpu_share"`
	HostDrift      bool    `json:"host_drift"`
}

func newHostInfo() hostInfo {
	h := hostInfo{Commit: "unknown", GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// calibrated records the two calibrations; it is called once the timed
// rounds have been summarized, so StolenCPUShare is already known.
func (h *hostInfo) calibrated(before, after float64) {
	h.CalibBeforeMS, h.CalibAfterMS = before, after
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	h.HostDrift = hi > lo*1.05 || h.StolenCPUShare > maxStolenShare
}

var calibSink uint64

// calibrate times a fixed integer kernel — four independent xorshift
// chains held in registers, no memory traffic, nothing the engine shares
// — and returns the median of five tries in milliseconds. Four chains
// keep the core's issue slots full, so the kernel slows when a
// neighbour's virtual CPU runs on the sibling hyperthread, as the
// engine's decode loops do: it reads 31 ms with the core to itself and
// 45 to 55 ms in company. One dependent chain waits on itself and reads
// the same whoever shares the core.
func calibrate() float64 {
	tries := make([]float64, 5)
	for t := range tries {
		a, b, c, d := uint64(88172645463325252), uint64(0x9E3779B97F4A7C15), uint64(0xD1B54A32D192ED03), uint64(0x8CB92BA72F3D8DD7)
		start := time.Now()
		for i := 0; i < 10_000_000; i++ {
			a ^= a << 13
			b ^= b << 13
			c ^= c << 13
			d ^= d << 13
			a ^= a >> 7
			b ^= b >> 7
			c ^= c >> 7
			d ^= d >> 7
			a ^= a << 17
			b ^= b << 17
			c ^= c << 17
			d ^= d << 17
		}
		tries[t] = float64(time.Since(start)) / 1e6
		calibSink += a + b + c + d
	}
	return median(tries)
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in kilobytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stolenSeconds is the CPU time the hypervisor has so far given to other
// guests while this one had work to run: the steal column of /proc/stat,
// summed over CPUs. Linux counts it in hundredths of a second. It reads 0
// where the kernel does not report it.
func stolenSeconds() float64 {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(blob, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}
