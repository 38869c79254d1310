// Package core is the TurboTransformers computing runtime: it ties together
// the fused computation graph, the CPU kernel implementations, and the
// sequence-length-aware memory manager into an engine a caller can run
// variable-length inference on — the Go analogue of the paper's
// "turbo_transformers.BertModel.from_torch(...)" three-line integration.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/allocator"
	"repro/internal/model"
	"repro/internal/tensor"
)

// AllocatorKind selects the memory manager (§4.2 comparisons).
type AllocatorKind string

// Supported allocator kinds.
const (
	AllocTurbo   AllocatorKind = "turbo"
	AllocGSOC    AllocatorKind = "gsoc"
	AllocCaching AllocatorKind = "caching"
	AllocNaive   AllocatorKind = "naive"
)

// NewAllocator builds the named allocator over dev.
func NewAllocator(kind AllocatorKind, dev *allocator.Device) (allocator.Allocator, error) {
	switch kind {
	case AllocTurbo, "":
		return allocator.NewTurbo(dev), nil
	case AllocGSOC:
		return allocator.NewGSOC(dev), nil
	case AllocCaching:
		return allocator.NewCaching(dev), nil
	case AllocNaive:
		return allocator.NewNaiveArena(dev), nil
	}
	return nil, fmt.Errorf("core: unknown allocator kind %q", kind)
}

// Options configures an Engine.
type Options struct {
	// Seed drives deterministic weight initialisation.
	Seed int64
	// Unfused executes the Fig. 3a graph instead of the fused one
	// (for comparisons; the default is the fused runtime).
	Unfused bool
	// Allocator selects the memory manager (default: turbo).
	Allocator AllocatorKind
	// Classes attaches a classification head when > 0.
	Classes int
	// TensorCore emulates the Turbo-TC numeric path: FP16 GEMM operands
	// with FP32 accumulation (§6.2.1's "minimal and acceptable precision
	// loss").
	TensorCore bool
	// FP16 enables the binary16 fast path end-to-end: fp16-storage GEMMs
	// with fp32 accumulation (bit-identical to TensorCore's numerics, with
	// real binary16 weight/KV storage), binary16 KV caches at half the bytes
	// per token, and — on the fused encoder — the fused launch chains
	// (qk_scaled_softmax, pv_transpose_back). The fp32 route stays the
	// default and remains selectable for comparisons.
	FP16 bool
	// Packed selects the zero-padding execution path: mixed-length batches
	// run as ragged [totalTokens, hidden] blocks with per-request attention,
	// so no FLOP is ever spent on a padding row and no mask exists. The
	// padded path remains available as the reference oracle.
	Packed bool
	// PagedKVBlocks caps a GenEngine's KV block pool (0 derives a default
	// from the decoder's MaxTargetLen — enough worst-case block tables for 8
	// concurrent sessions).
	PagedKVBlocks int
	// PrefixEntries caps a GenEngine's prefix cache of retired generations
	// (0 = default 64).
	PrefixEntries int
}

// Engine is a ready-to-serve transformer model: tokeniser-facing embedding,
// encoder stack, and optional classification head.
type Engine struct {
	Cfg        model.Config
	Embedding  *model.Embedding
	Encoder    *model.Encoder
	Classifier *model.Classifier

	dev    *allocator.Device
	packed bool
	fp16   bool

	// Padding-waste accounting: rows of real work vs rows a padded
	// execution added on top (zero when the packed path runs — padding
	// never exists there).
	tokensProcessed atomic.Int64
	tokensPadded    atomic.Int64
	packedBatches   atomic.Int64
}

// TokenCounters reports the engine's cumulative padding-waste accounting:
// real tokens processed, padding rows executed (always zero on the packed
// path), and the number of batches served by the packed path.
func (e *Engine) TokenCounters() (processed, padded, packedBatches int64) {
	return e.tokensProcessed.Load(), e.tokensPadded.Load(), e.packedBatches.Load()
}

// PackedEnabled reports whether the engine runs the zero-padding path.
func (e *Engine) PackedEnabled() bool { return e.packed }

// FP16Enabled reports whether the engine runs the binary16 fast path.
func (e *Engine) FP16Enabled() bool { return e.fp16 }

// FusedLaunches returns the cumulative fused-chain kernel launches the
// encoder stack has dispatched (0 off the fused-chain graph).
func (e *Engine) FusedLaunches() int64 { return e.Encoder.FusedLaunches() }

// countBatch updates the token counters for one executed batch; packedRun
// says which path actually ran it.
func (e *Engine) countBatch(batchTokens [][]int, packedRun bool) {
	total, maxLen := 0, 0
	for _, toks := range batchTokens {
		total += len(toks)
		if len(toks) > maxLen {
			maxLen = len(toks)
		}
	}
	e.tokensProcessed.Add(int64(total))
	if packedRun {
		e.packedBatches.Add(1)
	} else {
		e.tokensPadded.Add(int64(len(batchTokens)*maxLen - total))
	}
}

// NewEngine builds an engine for the given model configuration.
func NewEngine(cfg model.Config, opts Options) (*Engine, error) {
	if cfg.IsDecoder {
		return nil, fmt.Errorf("core: decoder configs are served via model.Decoder")
	}
	dev := allocator.NewDevice()
	alloc, err := NewAllocator(opts.Allocator, dev)
	if err != nil {
		return nil, err
	}
	enc, err := newEncoderForOpts(cfg, opts, alloc)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Cfg:       cfg,
		Embedding: model.NewEmbedding(cfg, opts.Seed+500),
		Encoder:   enc,
		dev:       dev,
		packed:    opts.Packed,
		fp16:      opts.FP16,
	}
	if opts.Classes > 0 {
		e.Classifier = model.NewClassifier(cfg.Hidden, opts.Classes, opts.Seed+900)
	}
	return e, nil
}

// newEncoderForOpts builds the encoder stack the options ask for: the
// fused-chain graph under FP16 (two launches fewer per layer; Unfused still
// wins for comparisons), otherwise fused/unfused per Options.Unfused, with
// the numeric route (fp16 fast path or legacy tensor-core emulation)
// enabled on every layer.
func newEncoderForOpts(cfg model.Config, opts Options, alloc allocator.Allocator) (*model.Encoder, error) {
	var enc *model.Encoder
	var err error
	if opts.FP16 && !opts.Unfused {
		enc, err = model.NewEncoderFusedChains(cfg, opts.Seed, alloc)
	} else {
		enc, err = model.NewEncoder(cfg, opts.Seed, alloc, !opts.Unfused)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case opts.FP16:
		enc.EnableFP16()
	case opts.TensorCore:
		enc.EnableTensorCoreEmulation()
	}
	return enc, nil
}

// Encode embeds and encodes a batch of token sequences, returning the final
// hidden states [batch, maxLen, hidden] plus per-request lengths. On a
// packed engine the computation runs ragged end-to-end and is only
// scattered into the padded layout at the boundary, for callers that need
// the dense block; use EncodePacked to stay ragged.
func (e *Engine) Encode(batchTokens [][]int) (*tensor.Tensor, []int, error) {
	if e.packed {
		out, err := e.EncodePacked(batchTokens)
		if err != nil {
			return nil, nil, err
		}
		return out.ToPadded(), out.Lens(), nil
	}
	hidden, seqLens, err := e.Embedding.Encode(batchTokens)
	if err != nil {
		return nil, nil, err
	}
	out, _, err := e.Encoder.Forward(hidden, seqLens)
	if err != nil {
		return nil, nil, err
	}
	e.countBatch(batchTokens, false)
	return out, seqLens, nil
}

// EncodePacked embeds and encodes a batch through the zero-padding path,
// returning the ragged final hidden states. It works on any engine; a
// packed engine's Encode/Classify route through it.
func (e *Engine) EncodePacked(batchTokens [][]int) (*tensor.Packed, error) {
	hidden, err := e.Embedding.EncodePacked(batchTokens)
	if err != nil {
		return nil, err
	}
	out, _, err := e.Encoder.ForwardPacked(hidden)
	if err != nil {
		return nil, err
	}
	e.countBatch(batchTokens, true)
	return out, nil
}

// Classify runs the full pipeline and returns one class per request. The
// context is checked at stage boundaries (before the encoder pass and
// before the classification head), so a cancelled caller — a disconnected
// client, an aborted server — stops the pipeline without computing the
// remaining stages. A batch already inside an encoder forward runs that
// stage to completion; cancellation granularity is one stage.
func (e *Engine) Classify(ctx context.Context, batchTokens [][]int) ([]int, error) {
	if e.Classifier == nil {
		return nil, fmt.Errorf("core: engine built without a classification head")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.packed {
		hidden, err := e.EncodePacked(batchTokens)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return e.Classifier.PredictPacked(hidden)
	}
	hidden, _, err := e.Encode(batchTokens)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Classifier.Predict(hidden)
}

// MemoryStats reports the simulated device-memory counters, the quantities
// Figures 11–12 track.
func (e *Engine) MemoryStats() allocator.Snapshot {
	return e.dev.Snapshot()
}
