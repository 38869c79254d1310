package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	turbo "repro"
	"repro/internal/serving"
)

// checkOutputs compares every answered request against a solo reference
// computed on a fresh runtime with the served weights: each classify
// answer against Engine.Classify on that text alone, each stream against
// the GenEngine decoding that prompt alone under its budget (the repo's
// batched == solo bit-identity invariant). Repeats of one input must also
// agree with each other. It returns one message per mismatch.
func checkOutputs(reqs []request, outs []outcome) ([]string, error) {
	classOf := map[string]int{}
	budgetOf := map[string]int{} // largest budget asked per prompt
	for i := range reqs {
		q := &reqs[i]
		if !outs[i].ok {
			continue
		}
		if q.kind == kindClassify {
			classOf[q.text] = -1
		} else if q.maxNew > budgetOf[q.text] {
			budgetOf[q.text] = q.maxNew
		}
	}
	type job struct {
		text   string
		budget int // 0 for classify
	}
	var jobs []job
	for text := range classOf {
		jobs = append(jobs, job{text, 0})
	}
	for text, budget := range budgetOf {
		jobs = append(jobs, job{text, budget})
	}

	// The references run on as many workers as there are processors, each
	// with its own runtime.
	workers := runtime.GOMAXPROCS(0)
	classes := make([]int, len(jobs))
	streams := make([][]int, len(jobs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref, err := newRuntime()
			if err != nil {
				errs[w] = fmt.Errorf("reference runtime: %w", err)
				return
			}
			defer ref.GenEngine.Close()
			for i := w; i < len(jobs); i += workers {
				toks := serving.Tokenize(jobs[i].text, vocab)
				if jobs[i].budget == 0 {
					c, err := ref.Classify(context.Background(), [][]int{toks})
					if err != nil {
						errs[w] = fmt.Errorf("reference classify: %w", err)
						return
					}
					classes[i] = c[0]
					continue
				}
				if streams[i], err = soloStream(ref.GenEngine, toks, jobs[i].budget); err != nil {
					errs[w] = fmt.Errorf("reference generate: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	streamOf := map[string][]int{}
	for i, j := range jobs {
		if j.budget == 0 {
			classOf[j.text] = classes[i]
		} else {
			streamOf[j.text] = streams[i]
		}
	}

	var bad []string
	type key struct {
		text   string
		budget int
	}
	seen := map[key][]int{}
	for i := range reqs {
		q, o := &reqs[i], &outs[i]
		if !o.ok {
			continue
		}
		if q.kind == kindClassify {
			if o.class != classOf[q.text] {
				bad = append(bad, fmt.Sprintf("request %d: class %d, solo reference %d", q.id, o.class, classOf[q.text]))
			}
			continue
		}
		want := streamOf[q.text]
		want = want[:min(q.maxNew, len(want))]
		if !slices.Equal(o.tokens, want) {
			bad = append(bad, fmt.Sprintf("request %d: stream of %d tokens differs from the solo reference of %d", q.id, len(o.tokens), len(want)))
		}
		k := key{q.text, q.maxNew}
		if prev, ok := seen[k]; ok && !slices.Equal(prev, o.tokens) {
			bad = append(bad, fmt.Sprintf("request %d: repeat of a question returned a different stream", q.id))
		}
		seen[k] = o.tokens
	}
	return bad, nil
}

// soloStream decodes one prompt alone until it finishes.
func soloStream(g *turbo.GenEngine, prompt []int, budget int) ([]int, error) {
	ss, err := g.StartSessions([]int64{1}, [][]int{prompt}, []int{budget})
	if err != nil {
		return nil, err
	}
	s := ss[0]
	defer s.Close()
	for !s.Done() {
		if _, err := g.Step(ss); err != nil {
			return nil, err
		}
	}
	return append([]int(nil), s.Generated()...), nil
}

// tally is the client's own count of what happened, per kind.
type tally struct {
	sent, ok, failed [2]int
	cached           int // classify answers marked as response-cache hits
	status           map[int]int
}

func count(reqs []request, res []result, outs []outcome) tally {
	t := tally{status: map[int]int{}}
	for i := range reqs {
		k := reqs[i].kind
		t.sent[k]++
		if outs[i].ok {
			t.ok[k]++
		} else {
			t.failed[k]++
		}
		if outs[i].cached {
			t.cached++
		}
		t.status[res[i].status]++
	}
	return t
}

// reconcile checks the client's counts against the server's /v1/stats
// deltas over the run, and that the admission gauges drained at idle. (The
// KV byte gauges are not required to drain: the prefix cache keeps retired
// generations.) It returns one message per disagreement.
func reconcile(t tally, before, after turbo.RouterStats) []string {
	var bad []string
	expect := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: server says %d, client counted %d", what, got, want))
		}
	}
	for k := kindClassify; k <= kindGenerate; k++ {
		if t.sent[k] != t.ok[k]+t.failed[k] {
			bad = append(bad, fmt.Sprintf("%s: sent %d != ok %d + failed %d", k, t.sent[k], t.ok[k], t.failed[k]))
		}
	}
	expect("requests", after.Requests-before.Requests, int64(t.sent[kindClassify]))
	expect("gen_requests", after.GenRequests-before.GenRequests, int64(t.sent[kindGenerate]))
	expect("cache_hits", after.CacheHits-before.CacheHits, int64(t.cached))
	expect("jobs_rejected", after.JobsRejected-before.JobsRejected, int64(t.status[http.StatusTooManyRequests]))
	expect("jobs_expired", after.JobsExpired-before.JobsExpired, int64(t.status[http.StatusGatewayTimeout]))
	expect("queue_depth at idle", after.QueueDepth, 0)
	expect("gen_reserved_tokens at idle", after.GenReservedTokens, 0)
	return bad
}

// waitIdle polls the router until no job is queued, reserved or in flight,
// or until limit passes, and returns the last reading.
func waitIdle(r *turbo.Router, limit time.Duration) turbo.RouterStats {
	end := time.Now().Add(limit)
	for {
		s := r.Stats()
		busy := s.QueueDepth != 0 || s.GenReservedTokens != 0
		for _, p := range s.PerReplica {
			busy = busy || p.InFlight != 0
		}
		if !busy || time.Now().After(end) {
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
}
