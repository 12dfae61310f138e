package aio

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOSReaderCtxCancelStopsPrefetch proves a cancelled context wakes a
// consumer and shuts the prefetch goroutine down without Close having
// to race it.
func TestOSReaderCtxCancelStopsPrefetch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewOSReaderSectionCtx(ctx, f, 4096, 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	// The prefetcher may already have units buffered; drain until the
	// cancellation error surfaces. It must arrive within the prefetch
	// depth, never EOF and never a hang.
	var got error
	for i := 0; i < 16; i++ {
		_, err := r.Next()
		if err != nil {
			got = err
			break
		}
	}
	if got != context.Canceled {
		t.Fatalf("Next after cancel = %v, want context.Canceled", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOSReaderCtxPreCancelled proves a reader opened with an already
// dead context reports the cancellation instead of reading.
func TestOSReaderCtxPreCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := NewOSReaderSectionCtx(ctx, f, 4096, 2, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; ; i++ {
		_, err := r.Next()
		if err == context.Canceled {
			return
		}
		if err == io.EOF || err != nil {
			t.Fatalf("Next = %v, want context.Canceled", err)
		}
		if i > 4 {
			t.Fatal("cancelled reader kept delivering units")
		}
	}
}
