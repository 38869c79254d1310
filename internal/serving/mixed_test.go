package serving

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// mixedTestServer builds a server running BOTH ragged engines at once: the
// packed (zero-padding) classifier engine and the generation engine with
// packed batched prefill + grouped ragged decode.
func mixedTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	encCfg := model.BertBase().Scaled(128, 4, 512, 2)
	decCfg := model.Seq2SeqDecoder().Scaled(128, 4, 512, 2)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3, Packed: true})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      8,
		GenDefaultMaxNew: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestMixedEnginesEndToEnd drives concurrent /classify (packed encoder) and
// /v1/generate (batched packed prefill + grouped ragged decode) traffic on
// ONE server and pins the two invariants the ragged stack promises: batched
// results identical to solo, and both engines' ragged counters advancing.
func TestMixedEnginesEndToEnd(t *testing.T) {
	srv, ts := mixedTestServer(t)
	const n = 12
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("mixed ragged request %d %s", i, strings.Repeat("y", (i%5)*4))
	}

	// Solo references first (each request alone on both paths).
	soloClass := make([]int, n)
	soloGen := make([][]int, n)
	for i, text := range texts {
		soloClass[i] = classify(t, ts.URL, text).Class
		soloGen[i] = generate(t, ts.URL, text, 12).Tokens
	}

	// Concurrent mixed burst: every worker hits both endpoints. The
	// references' retired streams are dropped first, so the burst decodes
	// rather than replays them.
	hits := dropRetired(srv)
	classes := make([]int, n)
	gens := make([][]int, n)
	var wg sync.WaitGroup
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			classes[i] = classify(t, ts.URL, texts[i]).Class
			gens[i] = generate(t, ts.URL, texts[i], 12).Tokens
		}(i)
	}
	wg.Wait()
	noReplay(t, srv, hits)
	for i := range texts {
		if classes[i] != soloClass[i] {
			t.Fatalf("request %d: batched class %d vs solo %d", i, classes[i], soloClass[i])
		}
		if !reflect.DeepEqual(gens[i], soloGen[i]) {
			t.Fatalf("request %d: batched stream %v vs solo %v", i, gens[i], soloGen[i])
		}
	}

	stats := fetchStats(t, ts.URL)
	// Packed classifier path: every batch ran ragged, no padding row ever
	// materialised.
	if stats.PackedBatches == 0 {
		t.Fatal("packed classifier served traffic but packed_batches did not advance")
	}
	if stats.TokensPadded != 0 || stats.PaddingWaste != 0 {
		t.Fatalf("packed engine reported padding: %+v", stats)
	}
	// Ragged decode path: steps ran, every prompt prefillled through the
	// packed encoder, and passes never exceed prompts (one pass covers a
	// whole admission batch).
	if stats.GenSteps == 0 || stats.GenTokens == 0 {
		t.Fatalf("decode counters did not advance: %+v", stats)
	}
	if stats.GenPrefillPrompts < 2*n {
		t.Fatalf("prefill prompts %d, want ≥ %d", stats.GenPrefillPrompts, 2*n)
	}
	if stats.GenPrefillPasses > stats.GenPrefillPrompts {
		t.Fatalf("prefill passes %d exceed prompts %d", stats.GenPrefillPasses, stats.GenPrefillPrompts)
	}
	if stats.GenPrefillTokens == 0 {
		t.Fatal("prefill tokens did not advance")
	}
	// Everything finished: the scheduler's reservations drained back to
	// zero, and — once the prefix cache releases its retired entries — so
	// did the KV gauges.
	if stats.GenReservedTokens != 0 {
		t.Fatalf("idle server still holds reservations: %+v", stats)
	}
	if srv.gen.peakBatch.Load() < 1 {
		t.Fatal("no decode batches observed")
	}
	if mem := kvAfterClose(t, srv); mem.KVReservedBytes != 0 || mem.KVUsedBytes != 0 {
		t.Fatalf("KV gauges not drained: reserved=%d used=%d", mem.KVReservedBytes, mem.KVUsedBytes)
	}
}

// TestStatsReportKVReservation: while a generation is in flight, /v1/stats
// must expose the admission reservation (tokens and KV bytes) with used ≤
// reserved; after completion both drain to zero.
func TestStatsReportKVReservation(t *testing.T) {
	// A deliberately larger decoder than the other tests use: on a
	// single-core host a tiny model decodes a whole generation inside one
	// scheduler quantum, so a stats poll can systematically land only in
	// the idle gaps where reservations are zero. Each generation here spans
	// many quanta, keeping the in-flight window observable.
	encCfg := model.BertBase().Scaled(256, 4, 1024, 4)
	decCfg := model.Seq2SeqDecoder().Scaled(256, 4, 1024, 4)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3, Packed: true})
	if err != nil {
		t.Fatal(err)
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cost := sched.CostFunc(func(l, b int) time.Duration {
		return time.Duration(l*b) * 10 * time.Microsecond
	})
	srv, err := NewServer(ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      8,
		GenDefaultMaxNew: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	// Keep several overlapping generations in flight while polling: with a
	// single sequential client the live set drains between requests and a
	// stats poll starved by a core-saturating decode loop can land only in
	// those idle gaps; staggered concurrent clients keep the reservation
	// window open essentially the whole observation period.
	stop := make(chan struct{})
	var workers sync.WaitGroup
	for w := 0; w < 3; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				generate(t, ts.URL, fmt.Sprintf("reservation watch %d-%d", w, i), 64)
			}
		}(w)
	}
	sawReservation := false
	deadline := time.Now().Add(5 * time.Second)
	for !sawReservation && time.Now().Before(deadline) {
		stats := fetchStats(t, ts.URL)
		if stats.GenKVUsedBytes > stats.GenKVReservedBytes {
			t.Fatalf("used %d exceeds reserved %d", stats.GenKVUsedBytes, stats.GenKVReservedBytes)
		}
		if stats.GenReservedTokens > 0 && stats.GenKVReservedBytes > 0 {
			sawReservation = true
		}
	}
	close(stop)
	workers.Wait()
	if !sawReservation {
		t.Fatal("never observed an in-flight KV reservation in /v1/stats")
	}
	stats := fetchStats(t, ts.URL)
	if stats.GenReservedTokens != 0 {
		t.Fatalf("reservation not released after completion: %+v", stats)
	}
	// The KV gauges drain once the prefix cache releases its retired
	// entries.
	if mem := kvAfterClose(t, srv); mem.KVReservedBytes != 0 || mem.KVUsedBytes != 0 {
		t.Fatalf("KV not released after completion: reserved=%d used=%d", mem.KVReservedBytes, mem.KVUsedBytes)
	}
}
