package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	turbo "repro"
)

// The one served configuration every run measures — the set-up turbo-serve
// uses, at the gen-decode geometry (hidden 192, 6 heads, inter 768,
// 3 layers, vocab 512): packed encoder, DP scheduler over a token cost
// warmed up at start, paged KV with the prefix cache, response cache on,
// two mixed replicas behind the Router with token-cost routing, fp32.
const (
	hidden, heads, inter, layers = 192, 6, 768, 3
	vocab                        = 512

	weightSeed    = 42
	classes       = 4
	maxBatch      = 8
	genMaxBatch   = 8
	genMaxNew     = 32
	queueDepth    = 256
	respCache     = 1024
	prefixEntries = 64
	replicas      = 2

	// The cost warm-up sweep, priced on replica 0's engine: lengths 1 to
	// 128 at stride 32, batches 1 and 2, about 1 s. turbo-serve's default
	// grid (stride 16, batches 1 to 8) takes about 20 s at this geometry on
	// a 2-core x86 host, and the three-term token-cost fit needs far fewer
	// points.
	warmMaxLen   = 128
	warmStride   = 32
	warmMaxBatch = 2
)

// modelConfigs returns the encoder and decoder geometry.
func modelConfigs() (enc, dec turbo.Config) {
	enc = turbo.BertBase().Scaled(hidden, heads, inter, layers)
	dec = turbo.Seq2SeqDecoder().Scaled(hidden, heads, inter, layers)
	enc.Vocab, dec.Vocab = vocab, vocab
	return enc, dec
}

// newRuntime builds the engines of replica 0 (and, without Serve, the
// solo reference engines the output check compares against: same options,
// same weights).
func newRuntime() (*turbo.Runtime, error) {
	enc, dec := modelConfigs()
	return turbo.NewRuntime(enc,
		turbo.WithSeed(weightSeed),
		turbo.WithClasses(classes),
		turbo.WithPacked(),
		turbo.WithMaxBatch(maxBatch),
		turbo.WithCache(respCache),
		turbo.WithQueueDepth(queueDepth),
		turbo.WithReplicas(replicas),
		turbo.WithBalancePolicy(turbo.TokenCostRouting),
		turbo.WithGeneration(dec),
		turbo.WithGenMaxBatch(genMaxBatch),
		turbo.WithGenDefaultMaxNew(genMaxNew),
		turbo.WithPagedKV(0),
		turbo.WithPrefixCache(prefixEntries),
	)
}

// served is one running configuration.
type served struct {
	rt      *turbo.Runtime
	svc     turbo.Service
	router  *turbo.Router
	handler http.Handler
}

// setUp builds the runtime, warms up the token cost on replica 0's engine
// exactly as turbo-serve does, and starts the routed service. wrap, when
// non-nil, wraps each replica's DP scheduler (the traced run's timing
// wrapper).
func setUp(wrap func(turbo.Scheduler) turbo.Scheduler) (*served, error) {
	rt, err := newRuntime()
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	var warmErr error
	price := func(seqLen, batch int) time.Duration {
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (i*31+j*7)%(vocab-3)
			}
			toks[i] = row
		}
		start := time.Now()
		if _, _, err := rt.Engine.Encode(toks); err != nil && warmErr == nil {
			warmErr = err
		}
		return time.Since(start)
	}
	tc := turbo.WarmupTokenCost(price, warmMaxLen, warmMaxBatch, warmStride)
	if warmErr != nil {
		return nil, fmt.Errorf("warm-up: %w", warmErr)
	}
	newSched := func() turbo.Scheduler {
		s := turbo.NewDPScheduler(tc, maxBatch)
		if wrap != nil {
			s = wrap(s)
		}
		return s
	}
	svc, err := rt.Serve(turbo.WithSchedulerFactory(newSched), turbo.WithRouteCost(tc))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	router, ok := svc.(*turbo.Router)
	if !ok {
		svc.Close()
		return nil, fmt.Errorf("serve returned %T, want a *Router over %d replicas", svc, replicas)
	}
	return &served{rt: rt, svc: svc, router: router, handler: svc.Handler()}, nil
}

// stop drains the service; a drain that does not finish in time aborts.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.svc.Shutdown(ctx)
}
