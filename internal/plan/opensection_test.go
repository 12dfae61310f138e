package plan

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/readoptdb/readopt/internal/fault"
)

// cancelSoon is the chaos injector's clock: the injected latency before
// a unit's (failing) read arms a timer that ends the query a moment
// later, while the retry stack is backing off from that failure.
type cancelSoon struct{ cancel context.CancelFunc }

func (c cancelSoon) Now() time.Time      { return time.Now() }
func (c cancelSoon) Sleep(time.Duration) { time.AfterFunc(200*time.Microsecond, c.cancel) }

// TestOpenSectionQueryEndsMidBackoff drives the production reader stack
// — OS prefetcher, chaos injector, retry — into the state where the
// retry has closed the failed reader and the query ends before it can
// reopen. The read must report a typed cancellation and the scanner's
// Close that follows must find nothing left to close twice.
func TestOpenSectionQueryEndsMidBackoff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "col")
	if err := os.WriteFile(path, make([]byte, 3*ioUnit), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fault.EnableChaos(fault.Config{
		Seed: 1, ReadErrRate: 1, PersistRate: 1,
		LatencyRate: 1, Clock: cancelSoon{cancel},
	})
	defer fault.DisableChaos()

	r, err := openSection(ctx, path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); fault.Classify(err) != fault.KindCancelled {
		t.Fatalf("Next = %v (kind %q), want a cancellation", err, fault.Classify(err))
	}
	for i := 0; i < 2; i++ {
		if err := r.Close(); err != nil {
			t.Errorf("Close %d = %v", i+1, err)
		}
	}
}
