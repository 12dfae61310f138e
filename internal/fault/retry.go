package fault

import (
	"context"
	"io"
	"io/fs"
	"time"

	"github.com/readoptdb/readopt/internal/aio"
	"github.com/readoptdb/readopt/internal/clock"
)

// OpenFunc reopens the underlying reader with the first skip bytes of
// its range already consumed. RetryReader calls it with the number of
// bytes it has successfully delivered so far, which is always a whole
// number of I/O units: transient errors never advance the position.
type OpenFunc func(skip int64) (aio.Reader, error)

// RetryReader retries transient read errors with capped
// jittered-exponential backoff by closing the failed reader and
// reopening at the last delivered offset. Errors that classify as
// anything but transient — corruption, cancellation, plain I/O state
// like io.EOF — pass through untouched, as does a transient error once
// the per-read attempt budget is spent. When built with a context, the
// backoff sleeps poll it: a deadline that expires mid-backoff surfaces
// immediately as a typed cancellation.
type RetryReader struct {
	open     OpenFunc
	attempts int
	backoff  Backoff
	clk      clock.Clock
	ctx      context.Context // nil means never cancelled

	inner     aio.Reader
	delivered int64
	// base accumulates the Stats of readers closed by retries so the
	// trace's I/O accounting survives reopens.
	base aio.Stats
}

// NewRetryReader opens the initial reader via open(0) and returns a
// RetryReader allowing the given extra attempts per failed read.
// backoff is the base of the exponential backoff. The reader is not
// bound to a context; prefer NewRetryReaderCtx so retries stop when
// the query does.
func NewRetryReader(open OpenFunc, attempts int, backoff time.Duration, clk clock.Clock) (*RetryReader, error) {
	return NewRetryReaderCtx(nil, open, attempts, Backoff{Base: backoff}, clk)
}

// NewRetryReaderCtx opens the initial reader via open(0) and returns a
// RetryReader allowing the given extra attempts per failed read, sleeping
// through b between attempts. ctx bounds the retries: when it is done,
// the next retry (or a backoff in progress) returns a Cancelled-tagged
// error instead of continuing. A nil ctx never cancels.
func NewRetryReaderCtx(ctx context.Context, open OpenFunc, attempts int, b Backoff, clk clock.Clock) (*RetryReader, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	inner, err := open(0)
	if err != nil {
		return nil, err
	}
	return &RetryReader{open: open, attempts: attempts, backoff: b, clk: clk, ctx: ctx, inner: inner}, nil
}

// Next returns the next unit, transparently retrying transient errors.
func (r *RetryReader) Next() ([]byte, error) {
	if r.inner == nil {
		return nil, fs.ErrClosed
	}
	for tries := 0; ; {
		buf, err := r.inner.Next()
		if err == nil {
			r.delivered += int64(len(buf))
			return buf, nil
		}
		if err == io.EOF {
			return nil, io.EOF
		}
		tries++
		if Classify(err) != KindTransient || tries > r.attempts {
			return nil, err
		}
		// Drop the failed reader before anything below can return: the
		// operator tree's Close must not reach a reader closed here.
		_ = r.Close() // the read error is what the caller sees
		if serr := r.backoff.Sleep(r.ctx, r.clk, tries); serr != nil {
			return nil, serr
		}
		inner, oerr := r.open(r.delivered)
		if oerr != nil {
			return nil, oerr
		}
		r.inner = inner
	}
}

// Close closes the current inner reader, keeping its accounting, and
// forgets it; with no reader left — a failed retry dropped it, or Close
// already ran — it does nothing.
func (r *RetryReader) Close() error {
	if r.inner == nil {
		return nil
	}
	r.base.Add(r.innerStats())
	err := r.inner.Close()
	r.inner = nil
	return err
}

// Stats folds the accounting of every reader this RetryReader has used.
func (r *RetryReader) Stats() aio.Stats {
	s := r.base
	s.Add(r.innerStats())
	return s
}

func (r *RetryReader) innerStats() aio.Stats {
	if in, ok := r.inner.(interface{ Stats() aio.Stats }); ok {
		return in.Stats()
	}
	return aio.Stats{}
}
