package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serving"
)

func init() {
	register(Experiment{
		ID:    "disagg-routing",
		Title: "Prefill/decode disaggregation: short-job tail latency under decode saturation (role-tagged router + KV hand-off)",
		Paper: "§5's single-server iteration batching mixes compute-bound prefill with latency-bound decode; splitting the roles across replicas and migrating the KV isolates short jobs from decode interference",
		Run:   runDisaggRouting,
	})
}

// disaggParams sizes the experiment; the smoke test runs a tiny variant so
// CI exercises the wiring without the full measurement.
type disaggParams struct {
	hidden, heads, inter, layers int
	n                            int     // requests per condition run
	shortLo, shortHi             int     // classify request lengths
	genPrompt                    int     // generation prompt length
	genMaxNew                    int     // generation decode budget
	genFrac                      float64 // fraction of arrivals that generate
	util                         float64 // offered load vs 2-replica capacity
	reps                         int     // best-of repetitions per condition
	seed                         int64
}

func defaultDisaggParams() disaggParams {
	return disaggParams{
		hidden: 64, heads: 4, inter: 256, layers: 2,
		n:       240,
		shortLo: 4, shortHi: 12,
		genPrompt: 48, genMaxNew: 48, genFrac: 0.20,
		util: 0.70, reps: 3, seed: 23,
	}
}

// disaggEvent is one request of the bimodal trace: a short classify or a
// long generation (prompt + decode budget).
type disaggEvent struct {
	at  time.Duration
	gen bool
	len int
}

// buildDisaggTrace paces a bimodal mix of short classifies and long
// generations at util × 2-replica capacity under the fitted token cost
// (a generation is priced over prompt AND decode budget, so the pacing
// accounts for the decode time that saturates the fleet).
func buildDisaggTrace(p disaggParams, fit *sched.TokenCost, seed int64) []disaggEvent {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]disaggEvent, p.n)
	var meanCost float64
	for i := range trace {
		if rng.Float64() < p.genFrac {
			trace[i] = disaggEvent{gen: true, len: p.genPrompt}
			meanCost += float64(fit.RequestCost(p.genPrompt, p.genMaxNew))
		} else {
			trace[i] = disaggEvent{len: p.shortLo + rng.Intn(p.shortHi-p.shortLo+1)}
			meanCost += float64(fit.RequestCost(trace[i].len, 0))
		}
	}
	meanCost /= float64(p.n)
	gap := time.Duration(meanCost / (p.util * 2))
	for i := range trace {
		trace[i].at = time.Duration(i) * gap
	}
	return trace
}

// newDisaggReplica builds one generation-capable replica: its own encoder
// and decoder engines (identical weights across replicas — same seeds), DP
// scheduler, queue, and dispatchers.
func newDisaggReplica(p disaggParams) (*serving.Server, *core.GenEngine, error) {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)
	decCfg := model.Seq2SeqDecoder().Scaled(p.hidden, p.heads, p.inter, p.layers)
	engine, err := core.NewEngine(encCfg, core.Options{Seed: 7, Classes: 4})
	if err != nil {
		return nil, nil, err
	}
	// The KV pool holds every decode slot's worst-case block tables, so the
	// decode loop never has to preempt for lack of blocks.
	const genMaxBatch = 8
	blocks := genMaxBatch * 2 * p.layers * ((p.genMaxNew + model.KVChunkTokens - 1) / model.KVChunkTokens)
	gen, err := core.NewGenEngine(encCfg, decCfg, core.Options{Seed: 7, Classes: 4, PagedKVBlocks: blocks})
	if err != nil {
		return nil, nil, err
	}
	cost := sched.CostFunc(func(l, b int) time.Duration { return time.Duration(l*b) * time.Microsecond })
	srv, err := serving.NewServer(serving.ServerConfig{
		Engine:           engine,
		Scheduler:        &sched.DPScheduler{Cost: cost, MaxBatch: 8},
		MaxBatch:         8,
		GenEngine:        gen,
		GenMaxBatch:      genMaxBatch,
		GenDefaultMaxNew: p.genMaxNew,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, gen, nil
}

// disaggText derives the deterministic request text for trace slot i, so
// the oracle replays the exact prompts the routed run generated for.
func disaggText(i, l int) string {
	text := make([]byte, l)
	for j := range text {
		text[j] = byte('a' + (i+j)%26)
	}
	return string(text)
}

// disaggRun is one (roles condition) measurement — latency samples pooled
// over all reps, accounting summed over all reps.
type disaggRun struct {
	shorts, gens       []time.Duration // pooled successful latencies
	shortP50, shortP99 time.Duration
	genP99             time.Duration
	failed             int
	migrations         int64
	migratedBytes      int64
	streams            map[int][]int // trace index → token stream (first rep)
	leakBytes          int64         // Σ per-replica KV gauges after drain
	inOutDelta         int64         // Σ migrated-in − Σ migrated-out bytes
}

// measureDisagg builds a fresh 2-replica router per rep with the given
// roles (nothing shared between conditions or reps), replays the trace,
// and audits the hand-off accounting after every drain. Latency samples
// POOL across reps — a wall-clock p99 over ~2 tail samples per rep is
// noise; over reps× as many it is a measurement.
func measureDisagg(p disaggParams, roles []serving.ReplicaRole, fit *sched.TokenCost, trace []disaggEvent) (disaggRun, error) {
	total := disaggRun{streams: map[int][]int{}}
	for rep := 0; rep < p.reps; rep++ {
		servers := make([]*serving.Server, 0, 2)
		engines := make([]*core.GenEngine, 0, 2)
		for i := 0; i < 2; i++ {
			s, g, err := newDisaggReplica(p)
			if err != nil {
				for _, prev := range servers {
					prev.Close()
				}
				return total, err
			}
			servers = append(servers, s)
			engines = append(engines, g)
		}
		router, err := serving.NewRouter(serving.RouterConfig{
			Policy: serving.TokenCostRouting,
			Cost:   fit,
			Roles:  roles,
		}, servers...)
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return total, err
		}
		res := replayDisaggTrace(router.Handler(), trace, p.genMaxNew)

		// Post-drain audit: the aggregate migrated-bytes counter must
		// reconcile with the per-replica in/out counters, and once the
		// router is stopped and each engine's prefix cache and pool are
		// closed, every replica's KV gauges must be back to zero — a
		// migration that leaked a reservation on either side shows up here.
		// A pool block still held once the prefix cache is dropped is
		// counted as leaked instead of closing the pool, whose Close would
		// panic on it.
		stats := router.Stats()
		total.migrations += stats.KVMigrations
		total.migratedBytes += stats.KVMigratedBytes
		var in, out int64
		for _, r := range stats.PerReplica {
			in += r.KVMigratedInBytes
			out += r.KVMigratedOutBytes
		}
		total.inOutDelta += in - out
		router.Close()
		for _, g := range engines {
			g.Generator.ClosePrefix()
			pool := g.Generator.BlockPool()
			if held := pool.Stats().UsedBlocks; held != 0 {
				total.leakBytes += int64(held) * pool.BlockBytes()
				continue
			}
			g.Close()
			snap := g.MemoryStats()
			total.leakBytes += snap.KVReservedBytes + snap.KVUsedBytes
		}
		total.shorts = append(total.shorts, res.shorts...)
		total.gens = append(total.gens, res.gens...)
		total.failed += res.failed
		if rep == 0 {
			total.streams = res.streams
		}
	}
	total.shortP50 = pctile(total.shorts, 0.50)
	total.shortP99 = pctile(total.shorts, 0.99)
	total.genP99 = pctile(total.gens, 0.99)
	return total, nil
}

// replayDisaggTrace replays the bimodal trace against a front door and
// separates the short-classify latency population (the headline) from the
// generation latencies and streams (the identity check).
func replayDisaggTrace(handler http.Handler, trace []disaggEvent, maxNew int) disaggRun {
	res := disaggRun{streams: map[int][]int{}}
	shortLat := make([]time.Duration, len(trace))
	genLat := make([]time.Duration, len(trace))
	ok := make([]bool, len(trace))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := liveNow()
	for i, ev := range trace {
		for liveSince(start) < ev.at {
			liveSleep(20 * time.Microsecond)
		}
		wg.Add(1)
		go func(i int, ev disaggEvent) {
			defer wg.Done()
			text := disaggText(i, ev.len)
			t0 := liveNow()
			if ev.gen {
				toks, code := genPost(handler, text, maxNew)
				genLat[i] = liveSince(t0)
				ok[i] = code == http.StatusOK
				if ok[i] {
					mu.Lock()
					res.streams[i] = toks
					mu.Unlock()
				}
				return
			}
			body, _ := json.Marshal(map[string]string{"text": text})
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			shortLat[i] = liveSince(t0)
			ok[i] = rec.Code == http.StatusOK
		}(i, ev)
	}
	wg.Wait()
	for i, ev := range trace {
		if !ok[i] {
			res.failed++
			continue
		}
		if ev.gen {
			res.gens = append(res.gens, genLat[i])
		} else {
			res.shorts = append(res.shorts, shortLat[i])
		}
	}
	res.shortP50 = pctile(res.shorts, 0.50)
	res.shortP99 = pctile(res.shorts, 0.99)
	res.genP99 = pctile(res.gens, 0.99)
	return res
}

func runDisaggRouting(w io.Writer) error {
	return runDisaggRoutingWith(w, defaultDisaggParams())
}

func runDisaggRoutingWith(w io.Writer, p disaggParams) error {
	encCfg := model.BertBase().Scaled(p.hidden, p.heads, p.inter, p.layers)

	// Warm-up fit on a scratch encoder: the SAME token-cost form the
	// router prices prefill (RequestCost(p,0)), decode (the complement),
	// and mixed (RequestCost(p,n)) admissions with.
	scratch, err := core.NewEngine(encCfg, core.Options{Seed: 7, Classes: 4})
	if err != nil {
		return err
	}
	price := func(seqLen, batch int) time.Duration {
		toks := make([][]int, batch)
		for i := range toks {
			row := make([]int, seqLen)
			for j := range row {
				row[j] = 3 + (i*31+j*7)%(encCfg.Vocab-3)
			}
			toks[i] = row
		}
		t0 := liveNow()
		if _, _, err := scratch.Encode(toks); err != nil {
			panic(err)
		}
		return liveSince(t0)
	}
	stride := p.genPrompt / 4
	if stride < 1 {
		stride = 1
	}
	fit := sched.FitTokenCost(price, p.genPrompt, 4, stride)

	fmt.Fprintf(w, "disagg routing: 2 replicas (hidden %d, %d layers), %d requests/run, gen frac %.0f%% (prompt %d + %d new), util %.0f%%\n",
		p.hidden, p.layers, p.n, 100*p.genFrac, p.genPrompt, p.genMaxNew, 100*p.util)

	trace := buildDisaggTrace(p, fit, p.seed)
	conditions := []struct {
		name  string
		roles []serving.ReplicaRole
	}{
		{"all-mixed", []serving.ReplicaRole{serving.RoleMixed, serving.RoleMixed}},
		{"prefill+decode", []serving.ReplicaRole{serving.RolePrefill, serving.RoleDecode}},
	}
	msf := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
	runs := map[string]disaggRun{}
	t := newTable(w)
	t.row("roles", "short-p50-ms", "short-p99-ms", "gen-p99-ms", "failed", "migrations", "migrated-KiB")
	for _, c := range conditions {
		res, err := measureDisagg(p, c.roles, fit, trace)
		if err != nil {
			return err
		}
		runs[c.name] = res
		t.row(c.name, msf(res.shortP50), msf(res.shortP99), msf(res.genP99),
			res.failed, res.migrations, fmt.Sprintf("%.1f", float64(res.migratedBytes)/1024))
		RecordMetric("disagg-routing", "short_p99_ms/"+c.name, float64(res.shortP99)/1e6)
		RecordMetric("disagg-routing", "short_p50_ms/"+c.name, float64(res.shortP50)/1e6)
		RecordMetric("disagg-routing", "gen_p99_ms/"+c.name, float64(res.genP99)/1e6)
	}
	t.flush()

	mixed, disagg := runs["all-mixed"], runs["prefill+decode"]

	// Hand-off accounting audit. Every migration is counted once, on its
	// completed import, so in-bytes must equal out-bytes exactly; the
	// drained fleet must hold zero KV on either replica's allocator.
	if disagg.migrations == 0 {
		fmt.Fprintf(w, "  hand-off accounting: NO MIGRATIONS — role routing never crossed replicas → FAIL\n")
	} else if disagg.inOutDelta != 0 || disagg.leakBytes != 0 {
		fmt.Fprintf(w, "  hand-off accounting: in−out delta %dB, post-drain KV gauges %dB → FAIL\n",
			disagg.inOutDelta, disagg.leakBytes)
	} else {
		fmt.Fprintf(w, "  hand-off accounting: %d migrations, %.1f KiB, in==out, post-drain KV gauges 0 → PASS\n",
			disagg.migrations, float64(disagg.migratedBytes)/1024)
	}
	RecordMetric("disagg-routing", "kv_migrations", float64(disagg.migrations))
	RecordMetric("disagg-routing", "kv_migrated_bytes", float64(disagg.migratedBytes))

	// Bit-identity: every migrated generation must stream exactly what a
	// single-replica server (same seeds, no hand-off) generates for the
	// same prompt — the KV crossed a replica boundary losslessly.
	oracle, _, err := newDisaggReplica(p)
	if err != nil {
		return err
	}
	diverged := 0
	checked := 0
	for i, ev := range trace {
		if !ev.gen {
			continue
		}
		want, code := genPost(oracle.Handler(), disaggText(i, ev.len), p.genMaxNew)
		if code != http.StatusOK {
			oracle.Close()
			return fmt.Errorf("oracle generate failed with %d", code)
		}
		for _, res := range []disaggRun{mixed, disagg} {
			got, ok := res.streams[i]
			if !ok {
				continue
			}
			checked++
			if !equalInts(got, want) {
				diverged++
			}
		}
	}
	oracle.Close()
	if diverged > 0 {
		fmt.Fprintf(w, "  stream identity: %d/%d routed streams DIVERGED from the single-replica oracle\n", diverged, checked)
	} else {
		fmt.Fprintf(w, "  stream identity: %d routed streams bit-identical to the single-replica oracle\n", checked)
	}

	// Live wall-clock tails are reported for visibility but carry no
	// verdict: in-process replicas share one machine's cores, so a mixed
	// replica's decode goroutines never actually pre-empt its classify
	// engine the way a real single-accelerator replica's serial compute
	// does — the interference channel the role split removes does not
	// exist here, while the split's cost (classifies confined to the
	// prefill replica) is fully real. The virtual-clock simulator below
	// models per-replica serial compute and gates the structural claim,
	// band-free. What the live run DOES gate: the split must not shed
	// load the mixed fleet absorbed (failures are excluded from the
	// percentiles, so shedding can never flatter a tail).
	verdict := "PASS"
	if disagg.failed > mixed.failed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  short-job tail (live, informational): prefill+decode p99 %sms vs all-mixed %sms; shed %d vs %d → %s\n",
		msf(disagg.shortP99), msf(mixed.shortP99), disagg.failed, mixed.failed, verdict)

	// The strict headline gate: on a virtual clock (no wall-clock noise,
	// fully deterministic) the role split must beat all-mixed on the
	// short-job tail while two-phase generations saturate the fleet.
	fmt.Fprintln(w, "cluster-simulator shape check (virtual clock, two-phase generations):")
	simCostModel := sched.CostFunc(func(l, b int) time.Duration { return fit.BatchCost(l, b) })
	// The sim prices a request of length L as ONE pass over L tokens, but a
	// real decode phase is maxNew SEQUENTIAL single-token steps — each one
	// paying the fixed launch cost. Convert the decode budget to the
	// equivalent priced length under the same fit, so the sim's decode
	// requests carry the serial cost the live decode replica actually bears.
	decodeCost := float64(p.genMaxNew) * float64(fit.RequestCost(1, 0))
	simDecodeLen := 1
	for simDecodeLen < 512 && float64(fit.RequestCost(simDecodeLen, 0)) < decodeCost {
		simDecodeLen++
	}
	// Offer load at util × 2-server capacity under the simulated mix (same
	// operating point as the live trace) — an idle sim has no interference
	// for the role split to remove, a saturated one measures only backlog.
	shortMean := float64(p.shortLo+p.shortHi) / 2
	simMeanCost := ((1-p.genFrac)*float64(fit.RequestCost(int(shortMean), 0)) +
		p.genFrac*float64(fit.RequestCost(p.genPrompt, 0)+fit.RequestCost(simDecodeLen, 0))) / 1e9
	simRate := p.util * 2 / simMeanCost
	simT := newTable(w)
	simT.row("sim roles", "served/s", "short-p99-ms", "migrations")
	simShort := map[string]float64{}
	for _, c := range conditions {
		res := serving.RunClusterSim(serving.ClusterConfig{
			Servers:  2,
			Policy:   serving.TokenCostRouting,
			Rate:     simRate,
			Warmup:   2,
			Duration: 8,
			Seed:     p.seed,
			LenLo:    p.shortLo,
			LenHi:    p.genPrompt,
			LenSampler: func(rng *rand.Rand) int {
				return p.shortLo + rng.Intn(p.shortHi-p.shortLo+1)
			},
			NewScheduler: func() sched.Scheduler {
				return &sched.DPScheduler{Cost: simCostModel, MaxBatch: 8}
			},
			Cost:           simCostModel,
			RouteCost:      fit,
			MaxBatch:       8,
			Roles:          c.roles,
			GenFrac:        p.genFrac,
			DecodeLen:      simDecodeLen,
			MigrationDelay: 0.0002,
		})
		simShort[c.name] = res.ShortP99
		simT.row(c.name, fmt.Sprintf("%.0f", res.ServedPerSec), fmt.Sprintf("%.2f", res.ShortP99*1e3), res.Migrations)
		RecordMetric("disagg-routing", "sim/short_p99_ms/"+c.name, res.ShortP99*1e3)
	}
	simT.flush()
	simVerdict := "PASS"
	if simShort["prefill+decode"] > simShort["all-mixed"] {
		simVerdict = "FAIL"
	}
	fmt.Fprintf(w, "  sim shape: prefill+decode short p99 %.2fms vs all-mixed %.2fms → %s\n",
		simShort["prefill+decode"]*1e3, simShort["all-mixed"]*1e3, simVerdict)
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
