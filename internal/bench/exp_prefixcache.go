package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serving"
)

func init() {
	register(Experiment{
		ID:    "prefix-cache",
		Title: "Paged KV + shared-prefix caching: fixed-question replay, block sharing and reserved-vs-used KV overcommit",
		Paper: "§7 WeChat FAQ: a fixed question set repeats, so caching retired generations lifts admission density 1.88×; paged blocks reserve only what decode depth reached",
		Run:   runPrefixCache,
	})
}

// prefixCacheParams sizes the experiment; the smoke test runs a tiny
// variant so CI exercises the wiring without the full measurement.
type prefixCacheParams struct {
	hidden, heads, inter, layers int
	candidates                   int // probed prompt pool the FAQ set is drawn from
	questions                    int // fixed FAQ set size
	rounds                       int // times the whole set is re-asked
	maxNew                       int // base decode budget
	contNew                      int // continuation budget (odd rounds) — forces block-table sharing
	maxBatch                     int // concurrent decode sequences per server
	workers                      int // concurrent clients replaying the trace
	gapN                         int // unique requests for the reserved-vs-used phase
	gapMaxNew                    int // worst-case budget those requests declare
	seed                         int64
}

func defaultPrefixCacheParams() prefixCacheParams {
	return prefixCacheParams{
		hidden: 128, heads: 4, inter: 512, layers: 2,
		candidates: 18, questions: 6, rounds: 6,
		maxNew: 32, contNew: 48,
		maxBatch: 8, workers: 8,
		gapN: 24, gapMaxNew: 64,
		seed: 5,
	}
}

// newPrefixGenServer builds one generation server: KV paged through the
// block pool with the shared-prefix cache in front. Every server shares the
// seeds, so greedy streams are bit-identical across servers by
// construction — the experiment verifies that, it does not assume it.
func newPrefixGenServer(p prefixCacheParams) (*serving.Server, *core.GenEngine, error) {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 1, Classes: 3})
	if err != nil {
		return nil, nil, err
	}
	genEngine, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed})
	if err != nil {
		return nil, nil, err
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * 10 * time.Microsecond })
	srv, err := serving.NewServer(serving.ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        genEngine,
		GenMaxBatch:      p.maxBatch,
		GenDefaultMaxNew: p.maxNew,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, genEngine, nil
}

// genPost drives one /v1/generate request through a handler and returns
// the token stream (nil on non-200).
func genPost(h http.Handler, text string, maxNew int) ([]int, int) {
	body, _ := json.Marshal(map[string]interface{}{"text": text, "max_new_tokens": maxNew})
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, rec.Code
	}
	var out struct {
		Tokens []int `json:"tokens"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return nil, rec.Code
	}
	return out.Tokens, rec.Code
}

// faqReq is one request of the fixed-question trace.
type faqReq struct {
	text   string
	budget int
}

// runFAQRound replays one round of the trace with bounded concurrency and
// returns the streams in request order plus how many came back non-200.
func runFAQRound(h http.Handler, reqs []faqReq, workers int) (streams [][]int, failed int) {
	streams = make([][]int, len(reqs))
	var failures int
	var mu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				toks, code := genPost(h, reqs[i].text, reqs[i].budget)
				if code != http.StatusOK {
					mu.Lock()
					failures++
					mu.Unlock()
					continue
				}
				streams[i] = toks
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return streams, failures
}

// genPreemptions reads the preemption counter off the server's own stats
// endpoint — the number the operator would see, not an internal gauge.
func genPreemptions(h http.Handler) int64 {
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out struct {
		GenPreemptions int64 `json:"gen_preemptions"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		return -1
	}
	return out.GenPreemptions
}

func runPrefixCache(w io.Writer) error {
	return runPrefixCacheWith(w, defaultPrefixCacheParams())
}

func runPrefixCacheWith(w io.Writer, p prefixCacheParams) error {
	// ---- Probe: pick the fixed question set and its reference streams ----
	//
	// Which prompts decode long (vs hitting EOS immediately) depends on the
	// seeded weights, so the FAQ set is chosen empirically: probe a candidate
	// pool on a reference server at the continuation budget (every candidate
	// is distinct, so nothing replays) and keep the longest streams. The
	// probe streams double as the bit-identity oracle — greedy decoding makes
	// any shorter ask of the same prompt an exact prefix of its probe stream.
	probe, probeEng, err := newPrefixGenServer(p)
	if err != nil {
		return err
	}
	candidates := []string{"hello", "alpha", "beta", "gamma", "delta"}
	for i := len(candidates); i < p.candidates; i++ {
		candidates = append(candidates, fmt.Sprintf("faq %c%c how do i %d", 'a'+i%26, 'a'+(i*7)%26, i))
	}
	type probed struct {
		text   string
		stream []int
	}
	pool := make([]probed, 0, len(candidates))
	for _, c := range candidates {
		toks, code := genPost(probe.Handler(), c, p.contNew)
		if code != http.StatusOK {
			probe.Close()
			return fmt.Errorf("probe %q: status %d", c, code)
		}
		pool = append(pool, probed{c, toks})
	}
	probe.Close()
	probeEng.Close()
	sort.SliceStable(pool, func(i, j int) bool { return len(pool[i].stream) > len(pool[j].stream) })
	if p.questions > len(pool) {
		p.questions = len(pool)
	}
	faq := pool[:p.questions]
	ref := make(map[string][]int, len(faq))
	longQs := 0
	for _, q := range faq {
		ref[q.text] = q.stream
		if len(q.stream) >= p.maxNew {
			longQs++
		}
	}
	fmt.Fprintf(w, "prefix-cache: fixed-question set of %d (of %d probed), %d decode ≥ %d tokens; %d rounds, budgets %d/%d, %d workers, gen batch %d\n",
		len(faq), len(pool), longQs, p.maxNew, p.rounds, p.maxNew, p.contNew, p.workers, p.maxBatch)

	// ---- Phase 1: fixed-question replay and block sharing ----
	//
	// The WeChat FAQ shape: the same question set is asked round after
	// round. Round 0 misses and retires; round 1 re-asks at a LARGER budget,
	// so the server continues off the donated block tables (copy-on-write
	// sharing, visible in the pool's peak-shared gauge); every later round
	// is a pure cache hit. Rounds are barriers — within a round the workers
	// race, between rounds the cache is warm.
	trace := make([][]faqReq, p.rounds)
	for r := 0; r < p.rounds; r++ {
		budget := p.maxNew
		if r%2 == 1 {
			budget = p.contNew
		}
		for _, q := range faq {
			trace[r] = append(trace[r], faqReq{q.text, budget})
		}
	}
	expect := func(q string, budget int) []int {
		full := ref[q]
		if budget > len(full) {
			budget = len(full)
		}
		return full[:budget]
	}

	srv, eng, err := newPrefixGenServer(p)
	if err != nil {
		return err
	}
	diverged, failed := 0, 0
	start := liveNow()
	for r := range trace {
		streams, f := runFAQRound(srv.Handler(), trace[r], p.workers)
		failed += f
		for i, got := range streams {
			if got != nil && !equalInts(got, expect(trace[r][i].text, trace[r][i].budget)) {
				diverged++
			}
		}
	}
	makespan := liveSince(start)
	pagedStats := eng.Generator.PrefixStats()
	poolStats := eng.Generator.BlockPool().Stats()
	preempts := genPreemptions(srv.Handler())
	srv.Close()
	eng.Close()

	msf := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	t := newTable(w)
	t.row("fixed-question trace", "makespan-ms", "failed", "prefix-hits", "replay-toks", "peak-shared-blk")
	t.row("paged + prefix cache", msf(makespan), failed,
		fmt.Sprint(pagedStats.Hits), fmt.Sprint(pagedStats.ReplayToks), fmt.Sprint(poolStats.PeakShared))
	t.flush()

	identity := "bit-identical"
	if diverged > 0 {
		identity = fmt.Sprintf("DIVERGED (%d streams off the greedy oracle)", diverged)
	}
	verdict := "PASS"
	if pagedStats.Hits == 0 || poolStats.PeakShared == 0 || diverged > 0 || failed > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  %d prefix hits, %d blocks peak-shared, streams %s, %d failed, %d preemptions → %s\n",
		pagedStats.Hits, poolStats.PeakShared, identity, failed, preempts, verdict)
	RecordMetric("prefix-cache", "faq/paged_makespan_ms", float64(makespan)/1e6)
	RecordMetric("prefix-cache", "faq/prefix_hits", float64(pagedStats.Hits))
	RecordMetric("prefix-cache", "faq/replay_tokens", float64(pagedStats.ReplayToks))
	RecordMetric("prefix-cache", "faq/peak_shared_blocks", float64(poolStats.PeakShared))
	RecordMetric("prefix-cache", "faq/preemptions", float64(preempts))

	// ---- Phase 2: reserved-vs-used overcommit ----
	//
	// A batch of sessions each admitted with a worst-case budget it has
	// barely begun to use: the paged cache holds only the blocks the
	// context actually reached. Two decode steps in, the KV gauges are read
	// at a deterministic instant (no wall-clock sampling) and reported as
	// the OVERCOMMIT RATIO (reserved ÷ occupied) — block rounding is the
	// only slack left.
	perSeq := 2 * p.layers * ((p.gapMaxNew + model.KVChunkTokens - 1) / model.KVChunkTokens)
	gapBlocks := p.gapN*perSeq + 2*2*p.layers // live worst case + watermark slack
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	gapEng, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: p.seed, PagedKVBlocks: gapBlocks})
	if err != nil {
		return err
	}
	ids := make([]int64, p.gapN)
	prompts := make([][]int, p.gapN)
	for i := range ids {
		ids[i] = int64(i + 1)
		row := make([]int, 5+i%4)
		for j := range row {
			row[j] = 3 + (i*17+j*7)%(encCfg.Vocab-3)
		}
		prompts[i] = row
	}
	sess, err := gapEng.StartSessions(ids, prompts, []int{p.gapMaxNew})
	if err != nil {
		gapEng.Close()
		return err
	}
	for step := 0; step < 2; step++ {
		live := make([]*model.GenSession, 0, len(sess))
		for _, s := range sess {
			if !s.Done() {
				live = append(live, s)
			}
		}
		if len(live) == 0 {
			break
		}
		if _, err = gapEng.Step(live); err != nil {
			break
		}
	}
	snap := gapEng.MemoryStats()
	for _, s := range sess {
		s.Close()
	}
	gapEng.Close()
	if err != nil {
		return err
	}
	ratio := float64(snap.KVReservedBytes)
	if snap.KVUsedBytes > 0 {
		ratio /= float64(snap.KVUsedBytes)
	}
	kb := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1024) }
	t = newTable(w)
	t.row("reserved-vs-used @2 steps", "reserved-KiB", "used-KiB", "gap-KiB", "overcommit")
	t.row("paged (per-block)", kb(snap.KVReservedBytes), kb(snap.KVUsedBytes),
		kb(snap.KVReservedBytes-snap.KVUsedBytes), fmt.Sprintf("%.2fx", ratio))
	t.flush()
	RecordMetric("prefix-cache", "gap/paged_overcommit_ratio", ratio)
	RecordMetric("prefix-cache", "gap/paged_gap_kib", float64(snap.KVReservedBytes-snap.KVUsedBytes)/1024)
	return nil
}
