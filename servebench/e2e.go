package main

import (
	"runtime/metrics"
	"time"
)

// Latency limits of slo_ok_ratio, set at two to three times the highest
// p95 the seed commit measured across the workloads (classify about
// 160 ms, first token about 150 ms, a stream's mean gap about 10 ms).
// slo_ok_ratio is the benchmark's tail metric: the p95s themselves spread
// too widely from run to run to carry a bound (see README.md). Limits at
// twice the p95 made the ratio itself swing with the host's speed.
const (
	limitClassify = 400 * time.Millisecond // classify answer, from due time
	limitTTFT     = 400 * time.Millisecond // first token, from due time
	limitGap      = 20 * time.Millisecond  // mean inter-token gap of a stream
)

// meetsLimit reports whether a request met its latency limit; a failed
// request never does.
func meetsLimit(q *request, o *outcome) bool {
	if !o.ok {
		return false
	}
	if q.kind == kindClassify {
		return o.ttft(q) <= limitClassify
	}
	if o.ttft(q) > limitTTFT {
		return false
	}
	return len(o.tokAt) < 2 || o.meanGap() <= limitGap
}

// endToEnd computes the metrics a user of the service sees. Latencies are
// timed from each request's due time.
func endToEnd(reqs []request, ph *phase, setupTimes []float64) []metric {
	var cls, ttft, gaps, tpot []float64
	met := 0
	for i := range reqs {
		q, o := &reqs[i], &ph.outs[i]
		if meetsLimit(q, o) {
			met++
		}
		if !o.ok {
			continue
		}
		if q.kind == kindClassify {
			cls = append(cls, ms(o.ttft(q)))
			continue
		}
		ttft = append(ttft, ms(o.ttft(q)))
		g := o.gaps()
		for _, x := range g {
			gaps = append(gaps, ms(x))
		}
		if len(g) > 0 {
			tpot = append(tpot, ms(o.meanGap()))
		}
	}
	sent := float64(len(reqs))
	return []metric{
		{"setup_s", median(setupTimes), "s", len(setupTimes)},
		{"classify_ms.p50", quantile(cls, 0.50), "ms", len(cls)},
		{"ttft_ms.p50", quantile(ttft, 0.50), "ms", len(ttft)},
		{"itl_ms.p50", quantile(gaps, 0.50), "ms", len(gaps)},
		{"tpot_ms.p50", quantile(tpot, 0.50), "ms", len(tpot)},
		{"slo_ok_ratio", float64(met) / sent, "ratio", len(reqs)},
		{"cpu_ms_per_req", ms(ph.cpu) / sent, "ms/req", len(reqs)},
		{"rss_peak_mib", ph.rssPeakMiB, "MiB", 0},
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}
