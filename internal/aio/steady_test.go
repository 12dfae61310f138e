//go:build !race

package aio

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestOSReaderSteadyStateAllocatesNoUnits: the second of two identical
// scans finds every unit it needs in the pool. Not built under the race
// detector, where sync.Pool drops a quarter of all Puts on purpose; one
// P and no GC make the pool's contents exact rather than likely.
func TestOSReaderSteadyStateAllocatesNoUnits(t *testing.T) {
	const unit, depth = 128 << 10, 48
	f, _ := tempFile(t, 12*unit)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	scan := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewOSReader(f, unit, depth)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		r.Close()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := scan(), scan()
	if second >= 64<<10 {
		t.Errorf("second scan allocated %d bytes (first: %d), want < 64KB: units are not being recycled", second, first)
	}
}
