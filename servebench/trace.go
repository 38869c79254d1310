package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	turbo "repro"
	"repro/internal/serving"
)

// traceSpan is one recorded interval. Spans of one client request share
// Req; a child names its parent's ID.
type traceSpan struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int                `json:"req"` // client request id, -1 for none
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"` // from the open loop's origin
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. It records
// only from the benchmark's own code: client requests, Schedule calls
// through the wrapper, and the replay into core, blas and kernels.
type tracer struct {
	now clock // set before the open loop starts

	// The fields below are guarded by mu: the replicas' dispatchers, the
	// request goroutines and the sampler all record concurrently.
	mu      sync.Mutex
	spans   []traceSpan
	nextID  int64
	sched   []schedCall
	samples []turbo.RouterStats
}

// schedCall is one Schedule call seen by the wrapper: its duration and the
// token lists of the classify batches it produced.
type schedCall struct {
	dur     time.Duration
	batches [][][]int
}

func (t *tracer) add(s traceSpan) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// request records a client request: due → first output → done.
func (t *tracer) request(q *request, r *result, o *outcome) {
	end := ms(r.done)
	root := t.add(traceSpan{Req: q.id, Name: "client." + q.kind.String(), Start: ms(q.due), End: end,
		Attrs: map[string]float64{"status": float64(r.status), "lag_ms": ms(r.lag(q)), "tokens": float64(len(o.tokens))}})
	if o.first > 0 {
		t.add(traceSpan{Parent: root, Req: q.id, Name: "client.first_output", Start: ms(q.due), End: ms(o.first)})
		if len(o.tokAt) > 1 {
			t.add(traceSpan{Parent: root, Req: q.id, Name: "client.stream", Start: ms(o.first), End: ms(o.tokAt[len(o.tokAt)-1])})
		}
	}
}

// replaySpan records one replayed call into a layer.
func (t *tracer) replaySpan(name string, start, end time.Duration, attrs map[string]float64) {
	t.add(traceSpan{Req: -1, Name: name, Start: ms(start), End: ms(end), Attrs: attrs})
}

// timedScheduler wraps a replica's DP scheduler and records each Schedule
// call's duration and the batches it formed.
type timedScheduler struct {
	inner turbo.Scheduler
	t     *tracer
}

func (t *tracer) wrap(s turbo.Scheduler) turbo.Scheduler { return &timedScheduler{inner: s, t: t} }

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(reqs []*turbo.Request) []turbo.Batch {
	start := s.t.now()
	out := s.inner.Schedule(reqs)
	end := s.t.now()
	call := schedCall{dur: end - start}
	for _, b := range out {
		var toks [][]int
		for _, r := range b.Requests {
			if j, ok := r.Payload.(*serving.Job); ok {
				toks = append(toks, j.Tokens)
			}
		}
		call.batches = append(call.batches, toks)
	}
	s.t.mu.Lock()
	s.t.sched = append(s.t.sched, call)
	s.t.mu.Unlock()
	s.t.add(traceSpan{Req: -1, Name: "sched.schedule", Start: ms(start), End: ms(end),
		Attrs: map[string]float64{"requests": float64(len(reqs)), "batches": float64(len(out))}})
	return out
}

// sample polls the router's stats every period until stop is closed.
func (t *tracer) sample(r *turbo.Router, period time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s := r.Stats()
			t.mu.Lock()
			t.samples = append(t.samples, s)
			t.mu.Unlock()
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
