package aio

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"github.com/readoptdb/readopt/internal/clock"
)

// OSReader streams an operating-system file with a background prefetcher:
// a goroutine reads ahead up to `depth` I/O units so the consumer overlaps
// computation with real I/O, the way the paper's AIO-based engine does.
//
// The prefetch window grows on demand (see takeUnit): a section of a few
// pages holds one or two units and a long cold scan still reaches the
// full depth. Units come from a process-wide pool and go back to it at
// Close, so the buffers Next returns must not be used after the
// following Next or Close.
type OSReader struct {
	f       *os.File
	clk     clock.Clock
	ctx     context.Context
	pool    *sync.Pool    // full-size units, shared by every reader of this unit size
	results chan osUnit   // filled units, in file order
	recycle chan *[]byte  // units the consumer is done with; never blocks (cap depth+1)
	stop    chan struct{} // closed by Close
	done    chan struct{} // closed when the prefetcher has exited
	owned   int           // units taken from pool; the prefetcher's until done is closed
	current *[]byte
	err     error // terminal: the error Next delivered, or fs.ErrClosed
	closed  bool
	stats   Stats
}

// SetClock replaces the clock that times prefetch stalls; tests inject a
// fake to make StallNanos deterministic. Call before the first Next.
func (r *OSReader) SetClock(c clock.Clock) {
	if c != nil {
		r.clk = c
	}
}

// osUnit is one prefetched unit: the first n bytes of *buf, or a
// terminal error.
type osUnit struct {
	buf *[]byte
	n   int
	err error
}

// unitPools maps a unit size (int64) to the *sync.Pool of *[]byte
// units of exactly that length, so the plan's 128KB readers and the
// write store's page-sized ones never see each other's buffers.
var unitPools sync.Map

// unitsOut counts units taken from the pools and not yet returned; the
// tests hold it to zero once every reader is closed.
var unitsOut atomic.Int64

func unitPool(unit int64) *sync.Pool {
	if p, ok := unitPools.Load(unit); ok {
		return p.(*sync.Pool)
	}
	p, _ := unitPools.LoadOrStore(unit, &sync.Pool{New: func() any {
		b := make([]byte, unit)
		return &b
	}})
	return p.(*sync.Pool)
}

// NewOSReader returns a prefetching reader over all of f. unit is the
// I/O unit size in bytes; depth is how many units may be in flight.
func NewOSReader(f *os.File, unit int64, depth int) (*OSReader, error) {
	return NewOSReaderSectionCtx(context.Background(), f, unit, depth, 0, -1)
}

// NewOSReaderSectionCtx returns a prefetching reader over the byte range
// [off, off+length) of f, bound to ctx; a negative length reads to the
// end of the file. Sections back partitioned (parallel) scans: each
// partition streams its own page-aligned slice of a table file. A
// cancelled ctx stops the prefetch loop between units — no further
// ReadAt is issued — and the pending error slot delivers ctx.Err() to
// the consumer, so a blocked Next wakes instead of waiting on I/O that
// will never come.
func NewOSReaderSectionCtx(ctx context.Context, f *os.File, unit int64, depth int, off, length int64) (*OSReader, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("aio: unit size %d invalid", unit)
	}
	if depth < 1 {
		return nil, fmt.Errorf("aio: prefetch depth %d invalid", depth)
	}
	if off < 0 {
		return nil, fmt.Errorf("aio: negative section offset %d", off)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &OSReader{
		f:       f,
		clk:     clock.Real{},
		ctx:     ctx,
		pool:    unitPool(unit),
		results: make(chan osUnit, depth),
		recycle: make(chan *[]byte, depth+1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go r.prefetch(unit, off, length)
	return r, nil
}

func (r *OSReader) prefetch(unit, off, remaining int64) {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := r.ctx.Err(); err != nil {
			r.deliver(err)
			return
		}
		if remaining == 0 {
			r.deliver(io.EOF)
			return
		}
		buf := r.takeUnit()
		if buf == nil {
			return
		}
		want := unit
		if remaining > 0 && remaining < want {
			want = remaining
		}
		n, err := r.f.ReadAt((*buf)[:want], off)
		if n == 0 {
			r.release(buf)
		} else {
			select {
			case r.results <- osUnit{buf: buf, n: n}:
				off += int64(n)
				if remaining > 0 {
					remaining -= int64(n)
				}
			case <-r.stop:
				r.release(buf)
				return
			case <-r.ctx.Done():
				r.release(buf)
				r.deliver(r.ctx.Err())
				return
			}
		}
		if err != nil {
			r.deliver(err)
			return
		}
	}
}

// takeUnit is the window's growth rule: reuse a unit the consumer has
// handed back if one is waiting, else take another from the pool while
// the reader owns fewer than depth+1, else wait for the consumer. It
// returns nil once the reader is closed or cancelled.
func (r *OSReader) takeUnit() *[]byte {
	select {
	case buf := <-r.recycle:
		return buf
	default:
	}
	if r.owned < cap(r.recycle) {
		r.owned++
		unitsOut.Add(1)
		return r.pool.Get().(*[]byte)
	}
	select {
	case buf := <-r.recycle:
		return buf
	case <-r.stop:
	case <-r.ctx.Done():
		// Stop issuing I/O and hand the cancellation to the consumer so
		// a blocked Next wakes. (Background's Done is a nil channel, so
		// the case never fires in the common, uncancellable
		// configuration.)
		r.deliver(r.ctx.Err())
	}
	return nil
}

// deliver hands a terminal error to the consumer, giving up if the
// reader is closed first.
func (r *OSReader) deliver(err error) {
	select {
	case r.results <- osUnit{err: err}:
	case <-r.stop:
	}
}

// release returns a unit to the pool. Debug builds poison it first, so
// a consumer still holding the buffer reads garbage, not another
// query's pages.
func (r *OSReader) release(buf *[]byte) {
	poisonUnit(*buf)
	unitsOut.Add(-1)
	r.pool.Put(buf)
}

// Next returns the next unit buffer, valid until the following Next or
// Close.
func (r *OSReader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.current != nil {
		// Hand the previous buffer back to the prefetcher.
		poisonUnit(*r.current)
		r.recycle <- r.current
		r.current = nil
	}
	// A non-blocking receive first distinguishes a unit the prefetcher had
	// ready (hit) from one the consumer must wait out (stall).
	var u osUnit
	stalled := false
	select {
	case u = <-r.results:
	default:
		stalled = true
		t0 := r.clk.Now()
		u = <-r.results
		r.stats.StallNanos += clock.Since(r.clk, t0).Nanoseconds()
	}
	if u.err != nil {
		r.err = u.err
		return nil, u.err
	}
	if stalled {
		r.stats.PrefetchStalls++
	} else {
		r.stats.PrefetchHits++
	}
	r.current = u.buf
	r.stats.BytesRead += int64(u.n)
	r.stats.Units++
	r.stats.Requests++
	return (*u.buf)[:u.n], nil
}

// Stats returns the reader's counters so far.
func (r *OSReader) Stats() Stats { return r.stats }

// Close stops the prefetcher and returns every unit the reader owns to
// the pool; closing twice is harmless. It does not close the underlying
// file, which the caller owns.
func (r *OSReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed, r.err = true, fs.ErrClosed
	close(r.stop)
	<-r.done
	// The prefetcher released whatever it held on its way out; the rest
	// is the consumer's unit and what sits in the two channels.
	if r.current != nil {
		r.release(r.current)
		r.current = nil
	}
	for {
		select {
		case u := <-r.results:
			if u.buf != nil {
				r.release(u.buf)
			}
		case buf := <-r.recycle:
			r.release(buf)
		default:
			return nil
		}
	}
}
