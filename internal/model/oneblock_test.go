package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// oneBlockBatch draws a ragged batch of query rows and contiguous
// [T, hidden] K/V contexts — the shape of the cross-attention memory.
func oneBlockBatch(rng *rand.Rand, rows, hidden int) (q []float32, keys, vals [][]float32, lens []int) {
	q = make([]float32, rows*hidden)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
	}
	for r := 0; r < rows; r++ {
		T := 1 + rng.Intn(23)
		k, v := make([]float32, T*hidden), make([]float32, T*hidden)
		for i := range k {
			k[i], v[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		keys, vals, lens = append(keys, k), append(vals, v), append(lens, T)
	}
	return q, keys, vals, lens
}

// TestOneBlockAttentionMatchesPerRowAttend pins the cross-attention route
// on the fp32 path: the grouped blocked kernel with each session's memory
// as one block (block size = the batch's widest context) must equal
// Decoder.attend over the same contiguous rows bit for bit.
func TestOneBlockAttentionMatchesPerRowAttend(t *testing.T) {
	cfg := genTestConfig()
	d, err := NewDecoder(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, heads := cfg.Hidden, cfg.Heads
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(5)
		q, keys, vals, lens := oneBlockBatch(rng, rows, h)
		kb, vb := make([][][]float32, rows), make([][][]float32, rows)
		blockTok := 0
		for i := range keys {
			kb[i], vb[i] = keys[i:i+1], vals[i:i+1]
			blockTok = max(blockTok, lens[i])
		}
		var ws kernels.DecodeWorkspace
		got := make([]float32, rows*h)
		scale := float32(1 / math.Sqrt(float64(h/heads)))
		ws.AttentionBlocked(q, kb, vb, lens, blockTok, heads, h/heads, scale, make([]float32, heads*blockTok*rows), got)
		for i := 0; i < rows; i++ {
			want := make([]float32, h)
			d.attend(q[i*h:(i+1)*h], keys[i], vals[i], lens[i], want)
			for j := range want {
				if math.Float32bits(got[i*h+j]) != math.Float32bits(want[j]) {
					t.Fatalf("trial %d session %d: ctx[%d] grouped %v vs attend %v", trial, i, j, got[i*h+j], want[j])
				}
			}
		}
	}
}

// TestF16OneBlockAttentionMatchesPerRowAttend is the binary16 twin: the
// fused fp16 blocked kernel over one-block binary16 tables must equal
// Decoder.attendBlockedF16 reading the same single blocks bit for bit.
func TestF16OneBlockAttentionMatchesPerRowAttend(t *testing.T) {
	cfg := genTestConfig()
	d, err := NewDecoder(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, heads := cfg.Hidden, cfg.Heads
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(5)
		q, keys, vals, lens := oneBlockBatch(rng, rows, h)
		kb, vb := make([][]blas.Half, rows), make([][]blas.Half, rows)
		blockTok := 0
		for i := range keys {
			kh, vh := make(blas.Half, len(keys[i])), make(blas.Half, len(vals[i]))
			tensor.EncodeF16Slice(kh, keys[i])
			tensor.EncodeF16Slice(vh, vals[i])
			kb[i], vb[i] = []blas.Half{kh}, []blas.Half{vh}
			blockTok = max(blockTok, lens[i])
		}
		var ws kernels.DecodeWorkspace
		got := make([]float32, rows*h)
		scale := float32(1 / math.Sqrt(float64(h/heads)))
		ws.AttentionBlockedF16(q, kb, vb, lens, blockTok, heads, h/heads, scale, make([]float32, heads*blockTok*rows), got)
		for i := 0; i < rows; i++ {
			want := make([]float32, h)
			d.attendBlockedF16(q[i*h:(i+1)*h], kb[i], vb[i], lens[i], blockTok, want)
			for j := range want {
				if math.Float32bits(got[i*h+j]) != math.Float32bits(want[j]) {
					t.Fatalf("trial %d session %d: ctx[%d] grouped %v vs attendBlockedF16 %v", trial, i, j, got[i*h+j], want[j])
				}
			}
		}
	}
}
