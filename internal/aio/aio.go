// Package aio is the engine's asynchronous, prefetching I/O interface —
// the role Linux AIO plays in the paper's implementation (Section 2.2.3).
// Reads happen at the granularity of an I/O unit (128KB per disk in all of
// the paper's experiments) and the engine specifies a prefetch depth: how
// many I/O units are issued at once when reading a file. There is no
// buffer pool of cached pages; the interface hands the scanner a buffer
// containing one I/O unit's worth of file data, and only the empty
// buffers themselves are recycled between readers.
//
// Two backends implement the interface. SimReader pairs the real file
// bytes with the simdisk timing model and a sim process, so a scan does
// its actual work on actual data while virtual time advances the way the
// paper's hardware would have; it is what the experiment harness uses.
// OSReader reads an operating-system file with a goroutine prefetcher and
// is used by the real-time benchmarks and tools.
package aio

import (
	"fmt"
	"io"

	"github.com/readoptdb/readopt/internal/sim"
	"github.com/readoptdb/readopt/internal/simdisk"
)

// Reader delivers a file's contents as a sequence of I/O-unit buffers.
//
// Ownership: the buffer Next returns is the consumer's only until the
// following Next or Close. After that the reader reuses it — OSReader
// refills it, and at Close returns it to a process-wide pool from which
// another query's reader will take it — so a consumer must copy out (or
// finish decoding) what it needs first and keep no slice of the unit.
// Builds tagged readoptdebug overwrite a unit as soon as the consumer
// gives it up, so that a violation fails tests instead of corrupting
// results.
type Reader interface {
	// Next returns the next buffer of file data, valid until the
	// following Next or Close call. It returns io.EOF after the last
	// unit.
	Next() ([]byte, error)
	// Close releases the reader's resources, including the buffer the
	// last Next returned. Closing an OSReader twice is harmless.
	Close() error
}

// Stats counts a reader's activity.
type Stats struct {
	BytesRead int64
	Units     int64    // I/O units delivered
	Requests  int64    // requests submitted to the device
	WaitTime  sim.Time // virtual time spent stalled on I/O (SimReader only)
	// PrefetchHits counts units already buffered when the consumer asked
	// for them; PrefetchStalls counts units the consumer had to wait for.
	// Their ratio is how well prefetch depth hides the device behind the
	// scan's computation.
	PrefetchHits   int64
	PrefetchStalls int64
	// StallNanos is the wall-clock time spent in those stalls (OSReader
	// only; the SimReader's equivalent is WaitTime, in virtual time).
	StallNanos int64
}

// Add accumulates o into s, used to merge the readers of one scan.
func (s *Stats) Add(o Stats) {
	s.BytesRead += o.BytesRead
	s.Units += o.Units
	s.Requests += o.Requests
	s.WaitTime += o.WaitTime
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchStalls += o.PrefetchStalls
	s.StallNanos += o.StallNanos
}

// Gate serializes request submission across the readers of one scan,
// reproducing the paper's "slow" column-system variant (Figure 11): the
// engine waits until the disk requests from one column are served before
// submitting a request from another column, instead of keeping every
// column one step ahead. Consecutive submissions by the same reader pass
// freely; only a change of column drains the pipeline.
type Gate struct {
	lastDone sim.Time
	owner    *SimReader
}

// NewGate returns a submission gate shared by a set of SimReaders.
func NewGate() *Gate { return &Gate{} }

// SimFile is a file registered with a simulated disk array together with
// its actual contents.
type SimFile struct {
	Array *simdisk.Array
	ID    simdisk.FileID
	// Data supplies the real bytes of the file (an os.File or
	// bytes.Reader); its length must match the registered size. A nil
	// Data makes the reader timing-only: buffers come back unread, which
	// the experiment harness uses to replay a measured scan's I/O
	// pattern at full scale without materializing 9.5GB of data.
	Data io.ReaderAt
}

// SimReader streams a SimFile through a sim process with windowed,
// chunk-issued prefetching: up to `depth` I/O units are kept outstanding,
// and whenever the window falls to half, it is refilled to depth in one
// contiguous chunk. Chunked issuance is what gives prefetching its value
// on a seeking disk: all units of a chunk are submitted together, so the
// device serves them back to back and pays at most one head movement per
// chunk, while the standing window keeps the disks busy underneath the
// scanner's computation. Completion times come from the simdisk model;
// the returned buffers hold the file's real bytes.
type SimReader struct {
	proc  *sim.Proc
	file  SimFile
	unit  int64 // logical I/O unit: per-disk unit × number of disks
	depth int
	gate  *Gate

	size    int64
	off     int64 // next byte to deliver
	pending []pendingUnit
	buf     []byte
	stats   Stats
}

type pendingUnit struct {
	off  int64
	n    int64
	done sim.Time
}

// NewSimReader returns a prefetching reader over f driven by process p.
// unitPerDisk is the per-disk I/O unit size (the paper uses 128KB); depth
// is the prefetch depth in units. A non-nil gate serializes submissions
// across readers sharing it (the "slow" variant); pass nil for the normal
// aggressive engine.
func NewSimReader(p *sim.Proc, f SimFile, unitPerDisk int64, depth int, gate *Gate) (*SimReader, error) {
	if unitPerDisk <= 0 {
		return nil, fmt.Errorf("aio: unit size %d invalid", unitPerDisk)
	}
	if depth < 1 {
		return nil, fmt.Errorf("aio: prefetch depth %d invalid", depth)
	}
	r := &SimReader{
		proc:  p,
		file:  f,
		unit:  unitPerDisk * int64(f.Array.Config().Disks),
		depth: depth,
		gate:  gate,
		size:  f.Array.FileSize(f.ID),
	}
	r.buf = make([]byte, r.unit)
	if err := r.refill(); err != nil {
		return nil, err
	}
	return r, nil
}

// refill submits unit requests until `depth` are outstanding, starting at
// the first unrequested byte, as one contiguous chunk.
func (r *SimReader) refill() error {
	start := r.off
	for _, u := range r.pending {
		start = u.off + u.n
	}
	if start >= r.size {
		return nil
	}
	if r.gate != nil && r.gate.owner != r && r.gate.lastDone > r.proc.Now() {
		// Slow engine: a different column submitted last, so block until
		// its requests have been fully served before submitting ours.
		r.proc.WaitUntil(r.gate.lastDone)
	}
	for i := len(r.pending); i < r.depth && start < r.size; i++ {
		n := r.unit
		if start+n > r.size {
			n = r.size - start
		}
		done, err := r.file.Array.Read(r.file.ID, start, n, r.proc.Now())
		if err != nil {
			return err
		}
		r.pending = append(r.pending, pendingUnit{off: start, n: n, done: done})
		r.stats.Requests++
		if r.gate != nil {
			r.gate.owner = r
			if done > r.gate.lastDone {
				r.gate.lastDone = done
			}
		}
		start += n
	}
	return nil
}

// Next blocks (in virtual time) until the next unit is available, reads
// its bytes, and returns the buffer. The prefetch window is refilled to
// depth whenever it falls to half.
func (r *SimReader) Next() ([]byte, error) {
	if len(r.pending) == 0 {
		if r.off >= r.size {
			return nil, io.EOF
		}
		if err := r.refill(); err != nil {
			return nil, err
		}
	}
	u := r.pending[0]
	r.pending = r.pending[1:]
	if u.done > r.proc.Now() {
		r.stats.WaitTime += u.done - r.proc.Now()
		r.stats.PrefetchStalls++
		r.proc.WaitUntil(u.done)
	} else {
		r.stats.PrefetchHits++
	}
	buf := r.buf[:u.n]
	if r.file.Data != nil {
		if _, err := io.ReadFull(io.NewSectionReader(r.file.Data, u.off, u.n), buf); err != nil {
			return nil, fmt.Errorf("aio: reading %s at %d: %w", r.file.Array.FileName(r.file.ID), u.off, err)
		}
	}
	r.off = u.off + u.n
	r.stats.BytesRead += u.n
	r.stats.Units++
	if len(r.pending) <= r.depth/2 && r.off < r.size {
		if err := r.refill(); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Stats returns the reader's counters so far.
func (r *SimReader) Stats() Stats { return r.stats }

// Close releases the reader. Outstanding simulated requests were already
// accounted to the disks.
func (r *SimReader) Close() error {
	r.pending = nil
	return nil
}
