package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/readoptdb/readopt/internal/aio"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{nil, KindNone},
		{Transient(errors.New("disk hiccup")), KindTransient},
		{Corruptf("page %d bad", 7), KindCorrupt},
		{Cancelled(errors.New("client went away")), KindCancelled},
		{context.Canceled, KindCancelled},
		{context.DeadlineExceeded, KindCancelled},
		{fmt.Errorf("scan: %w", Transient(errors.New("x"))), KindTransient},
		{fmt.Errorf("scan: %w", Corruptf("y")), KindCorrupt},
		{errors.New("plain"), KindOther},
		{io.EOF, KindOther},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestTaggedErrorsMatchSentinelAndCause(t *testing.T) {
	cause := errors.New("root cause")
	err := Transient(fmt.Errorf("wrapping: %w", cause))
	if !errors.Is(err, ErrTransient) {
		t.Fatal("transient error does not match ErrTransient")
	}
	if !errors.Is(err, cause) {
		t.Fatal("transient error lost its cause")
	}
	if Transient(nil) != nil || Cancelled(nil) != nil {
		t.Fatal("tagging nil must return nil")
	}
}

func TestScriptReader(t *testing.T) {
	boom := errors.New("boom")
	r := &ScriptReader{Units: [][]byte{[]byte("aa"), []byte("bb")}, Err: boom}
	for _, want := range []string{"aa", "bb"} {
		got, err := r.Next()
		if err != nil || string(got) != want {
			t.Fatalf("Next = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := r.Next(); err != boom {
		t.Fatalf("exhausted Next err = %v, want boom", err)
	}
	eof := &ScriptReader{}
	if _, err := eof.Next(); err != io.EOF {
		t.Fatalf("empty script Next err = %v, want io.EOF", err)
	}
	if err := (&ScriptReader{CloseErr: boom}).Close(); err != boom {
		t.Fatalf("Close err not propagated")
	}
}

// mkUnits builds n deterministic 64-byte units.
func mkUnits(n int) [][]byte {
	units := make([][]byte, n)
	for i := range units {
		u := make([]byte, 64)
		for j := range u {
			u[j] = byte(i*31 + j)
		}
		units[i] = u
	}
	return units
}

// outcome summarizes one Next call for determinism comparison.
type outcome struct {
	n   int
	sum byte
	err bool
}

func schedule(in *Injector, n int) []outcome {
	r := in.Wrap("tbl", 0, &ScriptReader{Units: mkUnits(n)})
	var out []outcome
	for {
		buf, err := r.Next()
		if err == io.EOF {
			return out
		}
		o := outcome{err: err != nil, n: len(buf)}
		for _, b := range buf {
			o.sum += b
		}
		out = append(out, o)
		if err != nil {
			return out
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, TornRate: 0.2, FlipRate: 0.2, ReadErrRate: 0.2}
	a := schedule(NewInjector(cfg), 64)
	b := schedule(NewInjector(cfg), 64)
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at unit %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 8
	c := schedule(NewInjector(cfg), 64)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestInjectorSectionAlignment(t *testing.T) {
	// Decisions key on absolute offsets, so a reader opened mid-file
	// must see the same faults a full scan saw at those offsets.
	cfg := Config{Seed: 3, TornRate: 0.5}
	full := schedule(NewInjector(cfg), 32)

	in := NewInjector(cfg)
	units := mkUnits(32)
	r := in.Wrap("tbl", 16*64, &ScriptReader{Units: units[16:]})
	for i := 16; i < 32; i++ {
		buf, err := r.Next()
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if len(buf) != full[i].n {
			t.Fatalf("unit %d: section saw len %d, full scan saw %d", i, len(buf), full[i].n)
		}
	}
}

func TestInjectorFlipCorruptsOneBit(t *testing.T) {
	in := NewInjector(Config{Seed: 1, FlipRate: 1})
	orig := mkUnits(1)
	want := bytes.Clone(orig[0])
	r := in.Wrap("tbl", 0, &ScriptReader{Units: orig})
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^want[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", diff)
	}
}

func TestInjectorTornNeverWholePages(t *testing.T) {
	in := NewInjector(Config{Seed: 2, TornRate: 1})
	r := in.Wrap("tbl", 0, &ScriptReader{Units: mkUnits(8)})
	for i := 0; i < 8; i++ {
		buf, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if short := 64 - len(buf); short < 1 || short > 7 {
			t.Fatalf("unit %d torn by %d bytes, want 1..7", i, short)
		}
	}
}

func TestRetryReaderRecoversTransientFaults(t *testing.T) {
	in := NewInjector(Config{Seed: 5, ReadErrRate: 1, PersistRate: 0})
	units := mkUnits(16)
	open := func(skip int64) (aio.Reader, error) {
		return in.Wrap("tbl", skip, &ScriptReader{Units: units[skip/64:]}), nil
	}
	r, err := NewRetryReader(open, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		buf, err := r.Next()
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if !bytes.Equal(buf, units[i]) {
			t.Fatalf("unit %d: data mismatch after retry", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("final Next err = %v, want io.EOF", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetryReaderExhaustsBudgetOnPersistentFault(t *testing.T) {
	in := NewInjector(Config{Seed: 5, ReadErrRate: 1, PersistRate: 1})
	open := func(skip int64) (aio.Reader, error) {
		return in.Wrap("tbl", skip, &ScriptReader{Units: mkUnits(4)}), nil
	}
	r, err := NewRetryReader(open, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if Classify(err) != KindTransient {
		t.Fatalf("err = %v (kind %q), want transient", err, Classify(err))
	}
}

func TestRetryReaderPassesNonTransientThrough(t *testing.T) {
	corrupt := Corruptf("bad page")
	open := func(skip int64) (aio.Reader, error) {
		return &ScriptReader{Err: corrupt}, nil
	}
	r, err := NewRetryReader(open, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want the corrupt error untouched", err)
	}
}

func TestChaosWrapIsNoOpWhenDisabled(t *testing.T) {
	DisableChaos()
	sr := &ScriptReader{}
	if got := ChaosWrap("tbl", 0, sr); got != aio.Reader(sr) {
		t.Fatal("disabled ChaosWrap should return the reader unchanged")
	}
	EnableChaos(Config{Seed: 1, TornRate: 1})
	defer DisableChaos()
	if got := ChaosWrap("tbl", 0, sr); got == aio.Reader(sr) {
		t.Fatal("enabled ChaosWrap should wrap the reader")
	}
	if !ChaosEnabled() {
		t.Fatal("ChaosEnabled should report true")
	}
}

// TestRetryReaderDropsInnerWhenReopenFails: a transient error closes the
// failed reader before the backoff and the reopen, either of which can
// fail. The RetryReader must not keep the closed reader around for the
// operator tree's Close to close again — on an aio.OSReader that was a
// "close of closed channel" panic, and with pooled units it would return
// every unit twice.
func TestRetryReaderDropsInnerWhenReopenFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 3*4096), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := NewInjector(Config{Seed: 1, ReadErrRate: 1})
	reopenErr := errors.New("reopen failed")
	opens := 0
	open := func(skip int64) (aio.Reader, error) {
		if opens++; opens > 1 {
			return nil, reopenErr
		}
		r, err := aio.NewOSReader(f, 4096, 2)
		if err != nil {
			return nil, err
		}
		return in.Wrap("f", skip, r), nil
	}
	r, err := NewRetryReader(open, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, reopenErr) {
		t.Fatalf("Next = %v, want the reopen error", err)
	}
	if _, err := r.Next(); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("Next with no reader left = %v, want fs.ErrClosed", err)
	}
	if s := r.Stats(); s.Units != 0 {
		t.Errorf("Stats with no reader left = %+v", s)
	}
	for i := 0; i < 2; i++ {
		if err := r.Close(); err != nil {
			t.Errorf("Close %d = %v", i+1, err)
		}
	}
}

// TestRetryReaderClosesEachReaderOnce counts Close calls across a retry
// that succeeds: one per reader opened, none repeated by a second Close
// of the RetryReader, and the closed readers' accounting kept.
func TestRetryReaderClosesEachReaderOnce(t *testing.T) {
	in := NewInjector(Config{Seed: 5, ReadErrRate: 1})
	units := mkUnits(4)
	var opened []*countingReader
	open := func(skip int64) (aio.Reader, error) {
		c := &countingReader{ScriptReader: ScriptReader{Units: units[skip/64:]}}
		opened = append(opened, c)
		return in.Wrap("tbl", skip, c), nil
	}
	r, err := NewRetryReader(open, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range units {
		if _, err := r.Next(); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
	r.Close()
	r.Close()
	if len(opened) < 2 {
		t.Fatalf("%d readers opened, want a retry", len(opened))
	}
	var delivered int64
	for i, c := range opened {
		if c.closes != 1 {
			t.Errorf("reader %d closed %d times, want once", i, c.closes)
		}
		delivered += c.stats.Units
	}
	if got := r.Stats().Units; got != delivered || got != int64(len(units)) {
		t.Errorf("Stats().Units = %d after Close, readers delivered %d, want %d", got, delivered, len(units))
	}
}

// countingReader is a ScriptReader that counts its Close calls and the
// units it delivered.
type countingReader struct {
	ScriptReader
	closes int
	stats  aio.Stats
}

func (c *countingReader) Next() ([]byte, error) {
	buf, err := c.ScriptReader.Next()
	if err == nil {
		c.stats.Units++
	}
	return buf, err
}

func (c *countingReader) Close() error {
	c.closes++
	return c.ScriptReader.Close()
}

func (c *countingReader) Stats() aio.Stats { return c.stats }
