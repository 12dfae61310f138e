package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/readoptdb/readopt"
)

// span is one timed interval of the traced pass. Spans of one op share
// its op number; parent is the id of the span that caused this one (0
// for the op itself). Self is the span's duration minus its children's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the traced pass's spans in memory; they are written out
// once, when the run ends. The spans are the benchmark's own, recorded
// around its calls into the engine: op → {plan_open, drain, close} for a
// library op, op → {encode, roundtrip, decode} for a wire op. What the
// engine reports about itself (server queue and exec time, QueryTrace
// stages) is hung below as children with durations but synthetic starts.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opSpan builds one op's span tree. ids inside it are local (the op's
// root is 0) until end moves the tree into the tracer.
type opSpan struct {
	tr    *tracer
	tree  []span // tree[i].ID == i, Parent indexes tree
	last  time.Time
	sent  time.Time // wire: request handed to the transport
	recvd time.Time // wire: response body read to the end
}

func (t *tracer) begin(o *op) *opSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &opSpan{tr: t, last: now, tree: []span{{Name: "op:" + o.plateau, Start: now.Sub(t.t0).Nanoseconds()}}}
}

func (s *opSpan) child(parent int, name string, from, to time.Time) int {
	s.tree = append(s.tree, span{ID: len(s.tree), Parent: parent, Name: name,
		Start: from.Sub(s.tr.t0).Nanoseconds(), End: to.Sub(s.tr.t0).Nanoseconds()})
	return len(s.tree) - 1
}

// mark closes the phase that began at the previous mark (or at begin).
func (s *opSpan) mark(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.child(0, name, s.last, now)
	s.last = now
}

// fit hangs engine-reported intervals below span parent. The engine
// reports durations, not instants, so the children are laid end to end
// from the parent's start. When they add up to more than the parent —
// operator stages also cover their Open and Close, which fall in
// plan_open and close; a coordinator sums its shards' parallel exec
// times — they are scaled to fit, keeping their proportions, so no self
// time goes negative. It returns the ids of the new spans.
func (s *opSpan) fit(parent int, names []string, durs []time.Duration) []int {
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	room := time.Duration(s.tree[parent].End - s.tree[parent].Start)
	scale := 1.0
	if sum > room {
		scale = float64(room) / float64(sum)
	}
	at := s.tr.t0.Add(time.Duration(s.tree[parent].Start))
	ids := make([]int, len(names))
	for i, name := range names {
		end := at.Add(time.Duration(float64(durs[i]) * scale))
		ids[i] = s.child(parent, name, at, end)
		at = end
	}
	return ids
}

// stages hangs the engine's own per-stage trace below span parent, one
// child per plan stage with the stage's own (exclusive) time.
func (s *opSpan) stages(parent int, qt *readopt.QueryTrace) {
	if qt == nil {
		return
	}
	names := make([]string, len(qt.Stages))
	durs := make([]time.Duration, len(qt.Stages))
	for i, st := range qt.Stages {
		names[i] = "engine:" + st.Op
		durs[i] = time.Duration(st.OwnTimeMicros) * time.Microsecond
	}
	s.fit(parent, names, durs)
}

// libraryDone closes a library op whose phases were marked plan_open,
// drain and close. The engine's stages time their operator's Open, Next
// and Close together, so they hang below the op's longest phase: an
// aggregate does its work inside Open, which is plan_open; a select
// does it while it is drained.
func (s *opSpan) libraryDone(qt *readopt.QueryTrace) {
	if s == nil {
		return
	}
	longest := 1
	for i := 2; i < len(s.tree); i++ {
		if s.tree[i].End-s.tree[i].Start > s.tree[longest].End-s.tree[longest].Start {
			longest = i
		}
	}
	s.stages(longest, qt)
	s.end()
}

type wireSpanKey struct{}

// wireContext lets spanTransport find this op from the request.
func (s *opSpan) wireContext(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, wireSpanKey{}, s)
}

// wireDone closes a wire op: encode runs until the transport got the
// request, roundtrip until the response body was read, decode until now.
// resp, when given, adds the server's own split of the round trip.
func (s *opSpan) wireDone(resp *readopt.QueryResponse) {
	if s == nil {
		return
	}
	now := time.Now()
	s.child(0, "encode", s.last, s.sent)
	rt := s.child(0, "roundtrip", s.sent, s.recvd)
	s.child(0, "decode", s.recvd, now)
	if resp != nil {
		ids := s.fit(rt, []string{"server.queue", "server.exec"}, []time.Duration{
			time.Duration(resp.QueueWaitMicros) * time.Microsecond,
			time.Duration(resp.ExecMicros) * time.Microsecond,
		})
		s.stages(ids[1], resp.Trace)
	}
	s.end()
}

// end closes the op's root span and hands the tree to the tracer.
func (s *opSpan) end() {
	s.tree[0].End = time.Since(s.tr.t0).Nanoseconds()
	for i := range s.tree {
		s.tree[i].Self = s.tree[i].End - s.tree[i].Start
	}
	for _, sp := range s.tree[1:] {
		s.tree[sp.Parent].Self -= sp.End - sp.Start
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	base := len(t.spans)
	for _, sp := range s.tree {
		sp.Op = t.ops
		sp.ID += base + 1
		if sp.ID == base+1 {
			sp.Parent = 0
		} else {
			sp.Parent += base + 1
		}
		t.spans = append(t.spans, sp)
	}
}

// spanSelf is the self time all spans of one name add up to.
type spanSelf struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes sums self time by span name, largest first.
func (t *tracer) selfTimes() []spanSelf {
	sums := map[string]int64{}
	for _, sp := range t.spans {
		sums[sp.Name] += sp.Self
	}
	var out []spanSelf
	for name, ns := range sums {
		out = append(out, spanSelf{name, float64(ns) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (t *tracer) write(path, workload string) error {
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// spanTransport timestamps the traced pass's HTTP round trips: when the
// request reaches the transport and when its response body hits EOF.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s, _ := req.Context().Value(wireSpanKey{}).(*opSpan)
	if s != nil {
		s.sent = time.Now()
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && s != nil {
		resp.Body = &eofStamp{ReadCloser: resp.Body, at: &s.recvd}
	}
	return resp, err
}

type eofStamp struct {
	io.ReadCloser
	at *time.Time
}

func (b *eofStamp) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.at.IsZero() {
		*b.at = time.Now()
	}
	return n, err
}
