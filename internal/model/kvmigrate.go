package model

import (
	"fmt"

	"repro/internal/allocator"
	"repro/internal/blas"
)

// SessionSnapshot is a GenSession serialized for migration between engines
// — the KV hand-off payload of prefill/decode disaggregation. It carries
// everything a decode replica needs to resume the session exactly where
// the prefill replica stopped: the control state (token stream, position,
// budget), the projected cross-attention memory, and every committed
// self-attention KV row, all as raw bits. fp16 rows travel as their
// binary16 storage words (never decoded through float32), so an imported
// session's caches are byte-for-byte the exporter's and greedy decode
// continues bit-identically on the other side.
//
// A snapshot holds no device memory — it is plain heap data. The exporter
// frees its device-side state the moment the copy exists (Close), so the
// mid-migration window charges neither replica's allocator gauges.
type SessionSnapshot struct {
	ID     int64
	Prompt []int // prompt tokens
	Toks   []int // generated tokens so far, EOS included if hit
	Next   int   // token fed at the next step
	Pos    int   // next decode position
	MaxNew int   // decode budget (the admission grant the importer re-reserves)
	Done   bool

	Half   bool // binary16 KV storage
	Hidden int
	Layers int

	// Cross-attention memory: per layer one [SrcLen*Hidden] K and V slab.
	// Exactly one of the fp32/fp16 pairs is populated, matching Half.
	SrcLen           int
	CrossK, CrossV   [][]float32
	CrossKH, CrossVH [][]uint16

	// Self-attention KV: KVLen committed rows per layer, same layout.
	KVLen          int
	SelfK, SelfV   [][]float32
	SelfKH, SelfVH [][]uint16
}

// Bytes returns the KV payload size of the snapshot — the figure the
// router's kv_migrated_bytes counter and the migration cost model price. It
// equals the device KV-used bytes the session occupied at export (cross
// rows plus committed self rows), so migrated-bytes totals reconcile
// directly against the allocator gauges.
func (s *SessionSnapshot) Bytes() int64 {
	elem := int64(4)
	if s.Half {
		elem = 2
	}
	return int64(s.SrcLen+s.KVLen) * int64(s.Layers) * 2 * int64(s.Hidden) * elem
}

// appendRowH stores one raw binary16 K/V row for the given layer, the
// import-side twin of AppendRow: no float32 round trip, so imported rows
// are the exporter's exact storage words (NaN payloads and all). Same
// EnsureAppendable contract as AppendRow.
func (c *BlockKVCache) appendRowH(layer int, kRow, vRow []uint16) {
	if !c.half {
		panic("model: appendRowH on an fp32 paged cache")
	}
	kb, vb, off := c.tailRow(layer, len(kRow), len(vRow))
	copy(kb.DataU16()[off:off+c.hidden], kRow)
	copy(vb.DataU16()[off:off+c.hidden], vRow)
}

// Export snapshots the session's full state as plain heap data — the
// first half of a KV hand-off. The session itself is untouched (the caller
// detaches it by closing it once the snapshot is delivered); exporting at
// an iteration boundary is the caller's responsibility, like every other
// session operation. Only open sessions export.
func (s *GenSession) Export() (*SessionSnapshot, error) {
	if s.cc == nil || s.kv == nil {
		return nil, fmt.Errorf("model: export of a closed session %d", s.ID)
	}
	hidden, layers := s.kv.hidden, len(s.kv.k)
	snap := &SessionSnapshot{
		ID:     s.ID,
		Prompt: append([]int(nil), s.prompt...),
		Toks:   append([]int(nil), s.toks...),
		Next:   s.next,
		Pos:    s.pos,
		MaxNew: s.maxNew,
		Done:   s.done,
		Half:   s.cc.half,
		Hidden: hidden,
		Layers: layers,
		SrcLen: s.cc.srcLen,
	}

	// Cross cache: deep-copy the per-layer slabs on the active numeric route.
	if s.cc.half {
		for l := 0; l < layers; l++ {
			snap.CrossKH = append(snap.CrossKH, append([]uint16(nil), s.cc.kh[l]...))
			snap.CrossVH = append(snap.CrossVH, append([]uint16(nil), s.cc.vh[l]...))
		}
	} else {
		for l := 0; l < layers; l++ {
			snap.CrossK = append(snap.CrossK, append([]float32(nil), s.cc.k[l]...))
			snap.CrossV = append(snap.CrossV, append([]float32(nil), s.cc.v[l]...))
		}
	}

	// Self KV: every committed row, raw. Right after prefill this is empty —
	// the dominant hand-off migrates only the cross memory — but a mid-flight
	// export (tests, future live migration) carries the full context.
	n, bt := s.kv.length, s.kv.blockTok
	snap.KVLen = n
	for l := 0; l < layers; l++ {
		if snap.Half {
			snap.SelfKH = append(snap.SelfKH, gatherRows(s.kv.k[l], n, bt, hidden, (*allocator.Block).DataU16))
			snap.SelfVH = append(snap.SelfVH, gatherRows(s.kv.v[l], n, bt, hidden, (*allocator.Block).DataU16))
		} else {
			snap.SelfK = append(snap.SelfK, gatherRows(s.kv.k[l], n, bt, hidden, (*allocator.Block).Data))
			snap.SelfV = append(snap.SelfV, gatherRows(s.kv.v[l], n, bt, hidden, (*allocator.Block).Data))
		}
	}
	return snap, nil
}

// gatherRows copies the first n rows of a block table (blockTok rows per
// block) into one contiguous [n, hidden] slab, read through view.
func gatherRows[E any](table []*allocator.Block, n, blockTok, hidden int, view func(*allocator.Block) []E) []E {
	out := make([]E, n*hidden)
	for t := 0; t < n; t += blockTok {
		rows := min(blockTok, n-t)
		copy(out[t*hidden:], view(table[t/blockTok])[:rows*hidden])
	}
	return out
}

// ImportSession rebuilds a session from a snapshot on THIS generator's
// device — the second half of a KV hand-off. The cross cache is recreated
// and charged to the local KV gauges (newCCRef), and every self-KV row is
// replayed through the exact append/commit path local decode uses
// (EnsureAppendable → raw append → Advance), so the importing device's
// reserved and used gauges move byte-for-byte as if the session had
// decoded here from the start. The snapshot is not consumed and may be
// imported again (each import deep-copies).
//
// The destination must run the same geometry and numeric route as the
// exporter (its block size may differ — the snapshot is layout-free); a
// destination that cannot supply the blocks returns ErrKVPoolExhausted with
// nothing held.
func (g *Generator) ImportSession(snap *SessionSnapshot) (*GenSession, error) {
	if snap == nil {
		return nil, fmt.Errorf("model: import of a nil snapshot")
	}
	if snap.Hidden != g.Cfg.Hidden || snap.Layers != g.Cfg.Layers {
		return nil, fmt.Errorf("model %s: snapshot geometry %dx%d, want %dx%d",
			g.Cfg.Name, snap.Layers, snap.Hidden, g.Cfg.Layers, g.Cfg.Hidden)
	}
	if snap.Half != g.dec.fp16 {
		return nil, fmt.Errorf("model %s: snapshot numeric route half=%v, engine half=%v",
			g.Cfg.Name, snap.Half, g.dec.fp16)
	}
	h := snap.Hidden

	// Rebuild the cross cache from the raw slabs and account it locally.
	cc := &crossCache{half: snap.Half, srcLen: snap.SrcLen}
	if snap.Half {
		for l := 0; l < snap.Layers; l++ {
			cc.kh = append(cc.kh, blas.Half(append([]uint16(nil), snap.CrossKH[l]...)))
			cc.vh = append(cc.vh, blas.Half(append([]uint16(nil), snap.CrossVH[l]...)))
		}
	} else {
		for l := 0; l < snap.Layers; l++ {
			cc.k = append(cc.k, append([]float32(nil), snap.CrossK[l]...))
			cc.v = append(cc.v, append([]float32(nil), snap.CrossV[l]...))
		}
	}
	ccr := newCCRef(g.dev, cc, h)

	s := &GenSession{
		ID:     snap.ID,
		cc:     cc,
		ccr:    ccr,
		prompt: append([]int(nil), snap.Prompt...),
		toks:   append([]int(nil), snap.Toks...),
		next:   snap.Next,
		pos:    snap.Pos,
		maxNew: snap.MaxNew,
		done:   snap.Done,
	}

	// Replay the committed self rows through the normal append path so the
	// local gauges see exactly the charges local decode would have made.
	kv, err := NewBlockKVCache(g.pool, snap.Layers, h, snap.Half)
	if err != nil {
		ccr.release()
		return nil, err
	}
	for t := 0; t < snap.KVLen; t++ {
		if !kv.EnsureAppendable() {
			kv.Free()
			ccr.release()
			return nil, ErrKVPoolExhausted
		}
		for l := 0; l < snap.Layers; l++ {
			if snap.Half {
				kv.appendRowH(l, snap.SelfKH[l][t*h:(t+1)*h], snap.SelfVH[l][t*h:(t+1)*h])
			} else {
				kv.AppendRow(l, snap.SelfK[l][t*h:(t+1)*h], snap.SelfV[l][t*h:(t+1)*h])
			}
		}
		kv.Advance()
	}
	s.kv = kv
	return s, nil
}
