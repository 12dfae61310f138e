package aio

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMain holds the whole package to the unit-ownership rule: once
// every test has closed its readers, no unit is outside its pool.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := unitsOut.Load(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "aio: %d I/O units were never returned to their pool\n", n)
		code = 1
	}
	os.Exit(code)
}

// tempFile writes size seeded-random bytes and returns them with the
// file opened for reading.
func tempFile(t *testing.T, size int) (*os.File, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, data
}

// waitFor polls cond, yielding to the prefetcher, until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// readAll drains r, returning the concatenated units.
func readAll(t *testing.T, r *OSReader) []byte {
	t.Helper()
	var got []byte
	for {
		buf, err := r.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf...)
	}
}

// TestOSReaderWindowGrowsWithTheSection: a reader owns only the units
// its section can fill — never the eager depth+1 ring.
func TestOSReaderWindowGrowsWithTheSection(t *testing.T) {
	const unit, depth = 8 << 10, 6
	f, data := tempFile(t, 20*unit)
	cases := []struct {
		name        string
		off, length int64
		units       int // units the range holds
	}{
		{"one-unit section", 3 * unit, unit, 1},
		{"sub-unit section", unit, 100, 1},
		{"three-unit section", 0, 3 * unit, 3},
		{"whole file", 0, -1, 20},
		{"tail to EOF", 18 * unit, -1, 2},
	}
	for _, c := range cases {
		r, err := NewOSReaderSectionCtx(context.Background(), f, unit, depth, c.off, c.length)
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, r)
		end := int64(len(data))
		if c.length >= 0 {
			end = c.off + c.length
		}
		if !bytes.Equal(got, data[c.off:end]) {
			t.Errorf("%s: delivered bytes differ from the file's", c.name)
		}
		r.Close()
		limit := c.units + 1
		if limit > depth+1 {
			limit = depth + 1
		}
		if r.owned < 1 || r.owned > limit {
			t.Errorf("%s: reader took %d units, want 1..%d", c.name, r.owned, limit)
		}
		if n := unitsOut.Load(); n != 0 {
			t.Fatalf("%s: %d units outstanding after Close", c.name, n)
		}
	}
}

// TestOSReaderReturnsEveryUnit walks each way a reader can end and
// requires every unit it took to be back in the pool afterwards.
func TestOSReaderReturnsEveryUnit(t *testing.T) {
	const unit, depth = 4 << 10, 3
	open := func(t *testing.T, ctx context.Context) *OSReader {
		f, _ := tempFile(t, 64*unit)
		r, err := NewOSReaderSectionCtx(ctx, f, unit, depth, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// windowFull reports the prefetcher has filled results and taken its
	// last unit: it is (about to be) blocked, on results or on recycle.
	windowFull := func(r *OSReader) func() bool {
		return func() bool { return len(r.results) == depth && unitsOut.Load() == depth+1 }
	}
	check := func(t *testing.T) {
		t.Helper()
		if n := unitsOut.Load(); n != 0 {
			t.Fatalf("%d units outstanding after Close", n)
		}
	}

	t.Run("drained to EOF", func(t *testing.T) {
		r := open(t, context.Background())
		readAll(t, r)
		if _, err := r.Next(); err != io.EOF {
			t.Errorf("Next after EOF = %v, want io.EOF again", err)
		}
		r.Close()
		check(t)
	})
	t.Run("closed mid-stream with results queued", func(t *testing.T) {
		r := open(t, context.Background())
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a full window", windowFull(r))
		r.Close()
		check(t)
		if _, err := r.Next(); err != fs.ErrClosed {
			t.Errorf("Next after Close = %v, want fs.ErrClosed", err)
		}
	})
	t.Run("closed twice", func(t *testing.T) {
		r := open(t, context.Background())
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if err := r.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
		check(t)
	})
	t.Run("cancelled while blocked on recycle", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		r := open(t, ctx)
		// The consumer holds one unit and results holds the other
		// depth, so the prefetcher has none left to take.
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a full window", windowFull(r))
		cancel()
		for i := 0; ; i++ {
			if _, err := r.Next(); err == context.Canceled {
				break
			} else if err != nil || i > depth+1 {
				t.Fatalf("Next after cancel = %v after %d units, want context.Canceled", err, i)
			}
		}
		r.Close()
		check(t)
	})
	t.Run("cancelled while blocked on results", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		r := open(t, ctx)
		// Nobody consumes: results fills and the prefetcher blocks
		// sending the unit it just read.
		waitFor(t, "a full window", windowFull(r))
		cancel()
		r.Close()
		check(t)
	})
	t.Run("read error", func(t *testing.T) {
		f, _ := tempFile(t, 8*unit)
		f.Close()
		r, err := NewOSReader(f, unit, depth)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("Next on a closed file = %v, want the read error", err)
		}
		r.Close()
		check(t)
	})
}

// TestOSReaderConcurrentMixedUnits opens and closes readers of the two
// unit sizes the engine uses from 8 goroutines at once. Run it under
// -race and -tags readoptdebug: a unit handed to two readers, a pool
// crossing sizes, or a buffer recycled while still delivered shows up as
// a byte mismatch against the file.
func TestOSReaderConcurrentMixedUnits(t *testing.T) {
	f, data := tempFile(t, 5*(128<<10)+4321)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				unit := int64(64 << 10)
				if (g+i)%2 == 0 {
					unit = 128 << 10
				}
				off := rng.Int63n(int64(len(data)))
				length := int64(-1)
				if rng.Intn(2) == 0 {
					length = rng.Int63n(int64(len(data)) - off)
				}
				end := int64(len(data))
				if length >= 0 {
					end = off + length
				}
				r, err := NewOSReaderSectionCtx(context.Background(), f, unit, 4, off, length)
				if err != nil {
					t.Error(err)
					return
				}
				pos := off
				stopAt := end
				if rng.Intn(3) == 0 {
					stopAt = off + (end-off)/2 // close mid-stream
				}
				for pos < stopAt {
					buf, err := r.Next()
					if err != nil {
						t.Errorf("goroutine %d: Next at %d: %v", g, pos, err)
						break
					}
					if int64(cap(buf)) < unit {
						t.Errorf("goroutine %d: unit-%d reader was handed a %d-byte buffer", g, unit, cap(buf))
					}
					if !bytes.Equal(buf, data[pos:pos+int64(len(buf))]) {
						t.Errorf("goroutine %d: unit at %d differs from the file", g, pos)
					}
					pos += int64(len(buf))
				}
				r.Close()
			}
		}(g)
	}
	wg.Wait()
	if n := unitsOut.Load(); n != 0 {
		t.Fatalf("%d units outstanding after every reader closed", n)
	}
}

// stepClock advances a fixed step on every reading, so each stall —
// one Now before the wait, one after — lasts exactly one step.
type stepClock struct {
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time        { c.now = c.now.Add(c.step); return c.now }
func (c *stepClock) Sleep(d time.Duration) {}

// TestOSReaderStallAccountingOnFakeClock pins the hit/stall contract
// the window growth must not move: every delivered unit is one or the
// other, the first unit of a reader nobody raced is a stall, and stall
// time is measured on the injected clock only while stalled.
func TestOSReaderStallAccountingOnFakeClock(t *testing.T) {
	const unit, depth, units = 4 << 10, 3, 32
	f, _ := tempFile(t, units*unit)
	r, err := NewOSReader(f, unit, depth)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	clk := &stepClock{step: time.Millisecond}
	r.SetClock(clk)
	for i := 0; i < units; i++ {
		if i > 0 {
			// Let the prefetcher get ahead so the unit is a hit.
			waitFor(t, "a prefetched unit", func() bool { return len(r.results) > 0 })
		}
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Stats()
	if s.Units != units || s.Requests != units || s.BytesRead != units*unit {
		t.Errorf("units %d requests %d bytes %d, want %d/%d/%d", s.Units, s.Requests, s.BytesRead, units, units, units*unit)
	}
	if s.PrefetchHits+s.PrefetchStalls != s.Units {
		t.Errorf("hits %d + stalls %d != units %d", s.PrefetchHits, s.PrefetchStalls, s.Units)
	}
	if s.PrefetchStalls > 1 {
		t.Errorf("%d stalls although every unit after the first was waited for", s.PrefetchStalls)
	}
	if want := s.PrefetchStalls * int64(clk.step); s.StallNanos != want {
		t.Errorf("StallNanos = %d, want %d (one step per stall)", s.StallNanos, want)
	}
}
