package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

const mib = 1 << 20

// perLayer computes the traced run's per-layer metrics: counters and
// gauges from /v1/stats (deltas over the run, or sampled), the Schedule
// wrapper's timings, the runtime's own counters, and a replay of the run's
// shapes into core, blas and kernels. It also writes the spans and the
// report (replayed vs modeled times, tracing overhead) under outDir.
func perLayer(wl *workload, seed int64, key runKey, reqs []request, ph *phase, tr *tracer, e2e []metric) ([]metric, error) {
	b, a := ph.before, ph.after

	var depth, overcommit []float64
	var usedPeak, sharedPeak int64
	for _, s := range tr.samples {
		depth = append(depth, float64(s.QueueDepth))
		usedPeak = max(usedPeak, s.KVBlocksUsed)
		sharedPeak = max(sharedPeak, s.KVBlocksShared)
		if s.GenReservedTokens > 0 && s.GenKVUsedBytes > 0 {
			overcommit = append(overcommit, float64(s.GenKVReservedBytes)/float64(s.GenKVUsedBytes))
		}
	}

	var routed []float64
	for i, p := range a.PerReplica {
		routed = append(routed, float64(p.JobsRouted-b.PerReplica[i].JobsRouted))
	}
	imbalance := ratio(slices.Max(routed), mean(routed))

	var schedUS []float64
	for _, c := range tr.sched {
		schedUS = append(schedUS, float64(c.dur)/float64(time.Microsecond))
	}

	var lags []float64
	for i := range reqs {
		lags = append(lags, ms(ph.res[i].lag(&reqs[i])))
	}

	mem := ph.memAfter
	allocs := float64(mem.AllocCount - ph.memBefore.AllocCount)
	routed0 := float64(a.PerReplica[0].JobsRouted - b.PerReplica[0].JobsRouted)

	sent := float64(len(reqs))
	hits := float64(a.CacheHits - b.CacheHits)
	misses := float64(a.CacheMiss - b.CacheMiss)
	phits := float64(a.PrefixHits - b.PrefixHits)
	pmiss := float64(a.PrefixMisses - b.PrefixMisses)
	genTokens := float64(a.GenTokens - b.GenTokens)
	replayed := float64(a.ReplayTokens - b.ReplayTokens)
	prefillBatch := ratio(float64(a.GenPrefillPrompts-b.GenPrefillPrompts),
		float64(a.GenPrefillPasses-b.GenPrefillPasses))

	rp, err := replayLayers(reqs, tr, prefillBatch)
	if err != nil {
		return nil, err
	}

	out := []metric{
		{"serving.queue_depth.mean", mean(depth), "jobs", len(depth)},
		{"serving.resp_cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits + misses)},
		{"serving.rejected", float64(a.JobsRejected - b.JobsRejected), "count", 0},
		{"serving.expired", float64(a.JobsExpired - b.JobsExpired), "count", 0},
		{"router.imbalance", imbalance, "ratio", len(routed)},
		{"sched.schedule_us.p50", quantile(schedUS, 0.50), "us", len(schedUS)},
		{"sched.schedule_us.p99", quantile(schedUS, 0.99), "us", len(schedUS)},
		{"sched.schedule_calls", float64(len(schedUS)), "count", 0},
		{"sched.classify_batch.mean", ratio(float64(a.Served-b.Served),
			float64(a.BatchesRun-b.BatchesRun)), "requests", 0},
		{"sched.decode_batch.mean", ratio(genTokens-replayed, float64(a.GenSteps-b.GenSteps)), "sessions", 0},
		{"sched.prefill_batch.mean", prefillBatch, "prompts", 0},
		{"sched.preemptions", float64(a.GenPreemptions - b.GenPreemptions), "count", 0},
		{"model.prefix_hit_ratio", ratio(phits, phits+pmiss), "ratio", int(phits + pmiss)},
		{"model.replay_token_ratio", ratio(replayed, genTokens), "ratio", int(genTokens)},
		{"model.kv_blocks_used.peak", float64(usedPeak), "blocks", len(tr.samples)},
		{"model.kv_blocks_shared.peak", float64(sharedPeak), "blocks", len(tr.samples)},
		{"allocator.kv_overcommit_ratio", mean(overcommit), "ratio", len(overcommit)},
		{"allocator.device_peak_mib", float64(mem.PeakBytes) / mib, "MiB", 0},
		{"allocator.allocs_per_req", ratio(allocs, routed0), "allocs/req", int(routed0)},
		{"core.classify_ms_per_tok", rp.classifyMSPerTok, "ms/token", rp.classifyTokens},
		{"core.prefill_ms_per_tok", rp.prefillMSPerTok, "ms/token", rp.prefillTokens},
		{"core.decode_step_ms.b1", rp.stepMS[0], "ms", decodeSteps},
		{"core.decode_step_ms.b4", rp.stepMS[1], "ms", decodeSteps},
		{"blas.gemm_gflops.decode", rp.decodeGFLOPS, "GFLOP/s", 0},
		{"blas.gemm_share.decode", rp.decodeGemmShare, "ratio", 0},
		{"blas.gemm_gflops.encoder", rp.encoderGFLOPS, "GFLOP/s", 0},
		{"kernels.softmax_us.packed", rp.softmaxUS, "us", rp.kernelCalls},
		{"kernels.layernorm_us.packed", rp.layernormUS, "us", rp.kernelCalls},
		{"runtime.gc_cpu_fraction", ratio(ph.rtAfter.gcCPU-ph.rtBefore.gcCPU, ph.rtAfter.totalCPU-ph.rtBefore.totalCPU), "ratio", 0},
		{"runtime.alloc_mib_per_req", (ph.rtAfter.allocBytes - ph.rtBefore.allocBytes) / mib / sent, "MiB/req", len(reqs)},
		{"loadgen.lag_ms.p99", quantile(lags, 0.99), "ms", len(lags)},
	}

	tag := fmt.Sprintf("%s-seed%d", wl.name, seed)
	if err := tr.write(filepath.Join(outDir, "trace-"+tag+".jsonl")); err != nil {
		return nil, err
	}
	var rep strings.Builder
	fmt.Fprintf(&rep, "Traced run: workload %s, seed %d, %d requests.\n\n", wl.name, seed, len(reqs))
	rp.writeReport(&rep)
	writeOverhead(&rep, wl.name, key, e2e)
	fmt.Fprint(os.Stderr, rep.String())
	if err := os.WriteFile(filepath.Join(outDir, "report-"+tag+".txt"), []byte(rep.String()), 0o644); err != nil {
		return nil, err
	}
	return out, nil
}

// writeOverhead reports tracing overhead: this traced run's end-to-end
// values minus the medians of the untraced runs recorded for the workload
// by the same binary at the same run length.
func writeOverhead(w io.Writer, wl string, key runKey, traced []metric) {
	f, err := os.ReadFile(filepath.Join(outDir, "e2e-"+wl+".jsonl"))
	vals := map[string][]float64{}
	runs := 0
	if err == nil {
		for _, ln := range strings.Split(strings.TrimSpace(string(f)), "\n") {
			var rec e2eRecord
			if json.Unmarshal([]byte(ln), &rec) != nil || rec.Build != key.Build || rec.Seconds != key.Seconds {
				continue
			}
			runs++
			for k, v := range rec.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
	}
	fmt.Fprintf(w, "\nTracing overhead: traced value minus the median of %d untraced %d-s run(s) of %s by this binary, recorded in %s.\n",
		runs, key.Seconds, wl, outDir)
	if runs == 0 {
		fmt.Fprintln(w, "  (no such untraced runs recorded yet in this checkout)")
		return
	}
	fmt.Fprintf(w, "  %-18s %12s %12s %12s\n", "metric", "traced", "untraced", "overhead")
	for _, m := range traced {
		u := median(vals[m.name])
		fmt.Fprintf(w, "  %-18s %12.4g %12.4g %+12.4g %s\n", m.name, m.value, u, m.value-u, m.unit)
	}
}
