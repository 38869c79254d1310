package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/perf"
	"repro/internal/serving"
)

// decodeSteps is how many GenEngine.Step calls each decode batch size is
// timed over.
const decodeSteps = 24

// maxReplayBatches caps how many recorded batches each replay re-runs.
const maxReplayBatches = 48

// replayRow is one line of the measured-vs-modeled table.
type replayRow struct {
	layer, op, shape string
	calls            int
	measured         time.Duration // total over calls
	modeled          time.Duration // perf.Estimator, same shapes, total over calls
	flops, bytes     float64       // GEMM rows only, computed from tensor sizes
}

// replayResult holds the replay's per-layer numbers and its report rows.
type replayResult struct {
	rows []replayRow

	classifyMSPerTok, prefillMSPerTok float64
	classifyTokens, prefillTokens     int
	stepMS                            [2]float64 // batch 1, batch 4
	decodeGFLOPS, decodeGemmShare     float64
	encoderGFLOPS                     float64
	softmaxUS, layernormUS            float64
	kernelCalls                       int

	modeledStep4, modeledStepGemm4 time.Duration
}

// replayLayers re-runs the traced run's shapes, after the serving phase,
// on a fresh runtime with the served weights: the classify batches the
// Schedule wrapper saw into core, the run's distinct generate prompts
// (batched as /v1/stats says prefill batched) into GenEngine.StartSessions,
// decode steps at batch 1 and 4 into GenEngine.Step, and the matching GEMM,
// softmax and layernorm shapes into blas and kernels. Every call is a
// span. Each measured time sits beside perf.Estimator's modeled time for
// the same shape (RTX 2060, Turbo profile).
func replayLayers(reqs []request, tr *tracer, prefillBatch float64) (*replayResult, error) {
	rt, err := newRuntime()
	if err != nil {
		return nil, fmt.Errorf("replay runtime: %w", err)
	}
	defer rt.GenEngine.Close()
	enc, dec := modelConfigs()
	est := perf.NewEstimator(perf.RTX2060())
	prof := perf.Turbo()
	rr := &replayResult{}
	ctx := context.Background()
	now := tr.now
	span := func(name string, start time.Duration, attrs map[string]float64) {
		tr.replaySpan(name, start, now(), attrs)
	}

	// core: classify batches as the scheduler formed them.
	var batches [][][]int
	for _, c := range tr.sched {
		batches = append(batches, c.batches...)
	}
	if len(batches) == 0 {
		for i := range reqs {
			if reqs[i].kind == kindClassify {
				batches = append(batches, [][]int{serving.Tokenize(reqs[i].text, vocab)})
			}
		}
	}
	batches = spread(batches, maxReplayBatches)
	row := replayRow{layer: "core", op: "Engine.Classify", shape: "recorded packed batches"}
	var mTotal int
	for _, b := range batches {
		toks := 0
		for _, t := range b {
			toks += len(t)
		}
		start := now()
		if _, err := rt.Engine.Classify(ctx, b); err != nil {
			return nil, fmt.Errorf("replay classify: %w", err)
		}
		row.measured += now() - start
		span("replay.core.classify", start, map[string]float64{"requests": float64(len(b)), "tokens": float64(toks)})
		row.modeled += est.EncoderLatency(prof, enc, 1, toks)
		row.calls++
		rr.classifyTokens += toks
		mTotal += toks
	}
	rr.rows = append(rr.rows, row)
	rr.classifyMSPerTok = ms(row.measured) / float64(max(1, rr.classifyTokens))
	encM := max(1, mTotal/max(1, len(batches)))

	// core: prefill of the run's distinct prompts in batches of the served
	// size. A repeat would be answered from the runtime's prefix cache
	// without running the encoder, so it is replayed once.
	var prompts [][]int
	seen := map[string]bool{}
	for i := range reqs {
		if q := &reqs[i]; q.kind == kindGenerate && !seen[q.text] {
			seen[q.text] = true
			prompts = append(prompts, serving.Tokenize(q.text, vocab))
		}
	}
	pb := max(1, int(prefillBatch+0.5))
	row = replayRow{layer: "core", op: "GenEngine.StartSessions", shape: fmt.Sprintf("%d prompts per packed pass", pb)}
	for i := 0; i+pb <= len(prompts) && row.calls < maxReplayBatches; i += pb {
		group := prompts[i : i+pb]
		ids := make([]int64, len(group))
		toks := 0
		for j := range group {
			ids[j] = int64(j + 1)
			toks += len(group[j])
		}
		start := now()
		ss, err := rt.GenEngine.StartSessions(ids, group, []int{genMaxNew})
		if err != nil {
			return nil, fmt.Errorf("replay prefill: %w", err)
		}
		row.measured += now() - start
		span("replay.core.prefill", start, map[string]float64{"prompts": float64(len(group)), "tokens": float64(toks)})
		for _, s := range ss {
			s.Close()
		}
		row.modeled += est.EncoderLatency(prof, enc, 1, toks)
		row.calls++
		rr.prefillTokens += toks
	}
	rr.rows = append(rr.rows, row)
	rr.prefillMSPerTok = ms(row.measured) / float64(max(1, rr.prefillTokens))

	// core: decode steps at batch 1 and 4 over the run's first prompts.
	meanPrompt := 0
	for i, b := range []int{1, 4} {
		if len(prompts) < b {
			return nil, fmt.Errorf("replay decode: the run has %d generate prompts, need %d", len(prompts), b)
		}
		ids := make([]int64, b)
		for j := range ids {
			ids[j] = int64(j + 1)
			meanPrompt += len(prompts[j])
		}
		ss, err := rt.GenEngine.StartSessions(ids, prompts[:b], []int{decodeSteps + 8})
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		var steps []float64
		for k := 0; k < decodeSteps+2; k++ {
			start := now()
			if _, err := rt.GenEngine.Step(ss); err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			if k >= 2 { // the first steps settle the decode scratch
				steps = append(steps, ms(now()-start))
				span("replay.core.decode_step", start, map[string]float64{"batch": float64(b)})
			}
		}
		for _, s := range ss {
			s.Close()
		}
		rr.stepMS[i] = median(steps)
		d := dec
		d.BeamSize = b
		src := max(1, meanPrompt/b)
		modeled := est.DecoderLatency(prof, d, src) / time.Duration(src)
		rr.rows = append(rr.rows, replayRow{layer: "core", op: "GenEngine.Step", shape: fmt.Sprintf("batch %d", b),
			calls: 1, measured: time.Duration(rr.stepMS[i] * float64(time.Millisecond)), modeled: modeled})
		if b == 4 {
			rr.modeledStep4 = modeled
		}
		meanPrompt = 0
	}

	// blas: one decode step's GEMMs at m = 1..4.
	rng := rand.New(rand.NewSource(7))
	type gemmShape struct{ n, k, perStep int }
	decShapes := []gemmShape{
		{hidden, hidden, 6 * layers}, // self Q, K, V, out; cross Q, out
		{inter, hidden, layers},      // FFN up
		{hidden, inter, layers},      // FFN down
		{vocab, hidden, 1},           // logits
	}
	var decFlops float64
	var decTime, gemm4 time.Duration
	for m := 1; m <= 4; m++ {
		for _, s := range decShapes {
			start := now()
			per, r := timeGemm(rng, m, s.n, s.k, 200)
			span("replay.blas.gemm", start, map[string]float64{"m": float64(m), "n": float64(s.n), "k": float64(s.k), "calls": float64(r.calls)})
			r.op = "blas.Gemm decode"
			r.modeled = time.Duration(r.calls) * est.GemmTime(prof, 1, m, s.n, s.k)
			rr.rows = append(rr.rows, r)
			decFlops += float64(s.perStep) * 2 * float64(m*s.n*s.k)
			decTime += time.Duration(s.perStep) * per
			if m == 4 {
				gemm4 += time.Duration(s.perStep) * per
				rr.modeledStepGemm4 += time.Duration(s.perStep) * est.GemmTime(prof, 1, m, s.n, s.k)
			}
		}
	}
	rr.decodeGFLOPS = decFlops / decTime.Seconds() / 1e9
	rr.decodeGemmShare = ratio(ms(gemm4), rr.stepMS[1])

	// blas: the packed encoder's GEMMs at the recorded mean batch tokens.
	encShapes := []gemmShape{{3 * hidden, hidden, 1}, {hidden, hidden, 1}, {inter, hidden, 1}, {hidden, inter, 1}}
	var encFlops float64
	var encTime time.Duration
	for _, s := range encShapes {
		start := now()
		per, r := timeGemm(rng, encM, s.n, s.k, 20)
		span("replay.blas.gemm", start, map[string]float64{"m": float64(encM), "n": float64(s.n), "k": float64(s.k), "calls": float64(r.calls)})
		r.op = "blas.Gemm encoder"
		r.modeled = time.Duration(r.calls) * est.GemmTime(prof, 1, encM, s.n, s.k)
		rr.rows = append(rr.rows, r)
		encFlops += 2 * float64(encM*s.n*s.k)
		encTime += per
	}
	rr.encoderGFLOPS = encFlops / encTime.Seconds() / 1e9

	// kernels: packed softmax and add-bias-layernorm at the recorded
	// batch shapes.
	smRow := replayRow{layer: "kernels", op: "PackedScaledSoftmax", shape: "recorded packed batches"}
	lnRow := replayRow{layer: "kernels", op: "AddBiasLayerNorm", shape: "recorded packed batches"}
	var smUS, lnUS []float64
	gamma, beta, bias := randVec(rng, hidden), randVec(rng, hidden), randVec(rng, hidden)
	for _, b := range batches {
		lens := make([]int, len(b))
		sqOffs := make([]int, len(b)+1)
		rows := 0
		for i, t := range b {
			lens[i] = len(t)
			sqOffs[i+1] = sqOffs[i] + len(t)*len(t)
			rows += len(t)
		}
		scores := randVec(rng, heads*sqOffs[len(b)])
		start := now()
		kernels.PackedScaledSoftmax(scores, lens, sqOffs, heads, 0.125)
		el := now() - start
		span("replay.kernels.softmax", start, map[string]float64{"rows": float64(rows)})
		smRow.measured += el
		smRow.modeled += est.SoftmaxPackedTime(prof, lens, heads)
		smRow.calls++
		smUS = append(smUS, float64(el)/float64(time.Microsecond))

		x, res := randVec(rng, rows*hidden), randVec(rng, rows*hidden)
		start = now()
		kernels.AddBiasLayerNorm(x, res, bias, gamma, beta, rows, hidden, 1e-12)
		el = now() - start
		span("replay.kernels.layernorm", start, map[string]float64{"rows": float64(rows)})
		lnRow.measured += el
		lnRow.modeled += est.LayerNormPackedTime(prof, lens, hidden)
		lnRow.calls++
		lnUS = append(lnUS, float64(el)/float64(time.Microsecond))
	}
	rr.rows = append(rr.rows, smRow, lnRow)
	rr.softmaxUS, rr.layernormUS, rr.kernelCalls = median(smUS), median(lnUS), len(batches)
	return rr, nil
}

// timeGemm times calls runs of one m×n×k blas.Gemm and returns the median
// call time with the row for the report. FLOPs (2·m·n·k) and bytes moved
// (4·(m·k + k·n + m·n)) are computed from the tensor sizes.
func timeGemm(rng *rand.Rand, m, n, k, calls int) (time.Duration, replayRow) {
	a, b, c := randVec(rng, m*k), randVec(rng, k*n), make([]float32, m*n)
	per := make([]float64, calls)
	var total time.Duration
	for i := range per {
		start := time.Now()
		blas.Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
		el := time.Since(start)
		total += el
		per[i] = float64(el)
	}
	return time.Duration(median(per)), replayRow{
		layer: "blas", shape: fmt.Sprintf("m=%d n=%d k=%d", m, n, k), calls: calls, measured: total,
		flops: float64(calls) * 2 * float64(m*n*k),
		bytes: float64(calls) * 4 * float64(m*k+k*n+m*n),
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// spread keeps at most n items, evenly spaced over xs.
func spread[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// writeReport prints the measured-vs-modeled table: each replayed call's
// measured time on this CPU beside perf.Estimator's modeled time for the
// same shape on an RTX 2060 (Turbo profile), and the decode step's GEMM
// share under each.
func (rr *replayResult) writeReport(w io.Writer) {
	fmt.Fprintln(w, "Replay: measured on this CPU vs modeled by perf.Estimator (RTX 2060, Turbo profile), same shapes.")
	fmt.Fprintln(w, "GEMM FLOPs (2·m·n·k) and bytes moved (4·(m·k+k·n+m·n)) are computed from tensor sizes, not measured.")
	fmt.Fprintf(w, "  %-7s %-24s %-28s %6s %13s %13s %10s %9s %9s\n",
		"layer", "op", "shape", "calls", "measured_ms", "modeled_ms", "meas/model", "GFLOP", "MB_moved")
	for _, r := range rr.rows {
		gf, mb := "", ""
		if r.flops > 0 {
			gf, mb = fmt.Sprintf("%.4f", r.flops/1e9), fmt.Sprintf("%.3f", r.bytes/1e6)
		}
		fmt.Fprintf(w, "  %-7s %-24s %-28s %6d %13.4f %13.5f %10.1f %9s %9s\n",
			r.layer, r.op, r.shape, r.calls, ms(r.measured), ms(r.modeled), ratio(float64(r.measured), float64(r.modeled)), gf, mb)
	}
	fmt.Fprintf(w, "Decode step at batch 4, GEMM share: measured %.3f, modeled %.3f.\n",
		rr.decodeGemmShare, ratio(float64(rr.modeledStepGemm4), float64(rr.modeledStep4)))
}
