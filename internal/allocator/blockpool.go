package allocator

import (
	"fmt"
	"sync"
)

// BlockPool carves a device into fixed-size, reference-counted KV blocks —
// the paged analogue of the contiguous per-request KV buffers the
// generation path used to reserve worst-case. A block is the unit of both
// allocation and sharing: requests whose prompts hash to the same prefix
// map the same blocks (ref > 1) until one of them writes past the shared
// region, and admission control can gate on FreeBlocks instead of a
// worst-case token budget.
//
// Device accounting: every block handed out counts blockBytes against the
// device's KV-reserved gauge exactly once, however many holders share it —
// the sharing win is directly visible in gen_kv_reserved_bytes. Returned
// blocks keep their device buffer on a free list (like the caching
// allocator), so steady admit/evict churn does not thrash the Malloc/Free
// traffic counters.
//
// All methods are safe for concurrent use.
type BlockPool struct {
	mu         sync.Mutex
	dev        *Device
	blockBytes int64
	capBlocks  int

	freeList []*Block // guarded by mu
	used     int      // blocks currently held by ≥1 holder; guarded by mu
	shared   int      // blocks currently held by ≥2 holders; guarded by mu
	carved   int      // blocks ever Malloc'd from the device; guarded by mu

	peakUsed   int   // guarded by mu
	peakShared int   // guarded by mu
	cowCopies  int64 // blocks allocated to replace a shared one (copy-on-write); guarded by mu
}

// Block is one fixed-size pool block. Its reference count is managed by
// the pool; holders must treat a block with Shared() true as read-only and
// copy-on-write before appending into it.
type Block struct {
	buf  *Buffer
	pool *BlockPool
	ref  int
	// usedBytes is the committed payload charged to the device's KV-used
	// gauge — counted once per physical block however many holders share
	// it, and released when the last holder leaves.
	usedBytes int64
}

// Data returns the block's backing floats (blockBytes/4 of them).
func (b *Block) Data() []float32 { return b.buf.Data() }

// DataU16 returns the block's backing storage viewed as binary16 elements
// (blockBytes/2 of them). A pool serves one generator with a fixed precision
// mode, so blocks are only ever accessed through one of the two views.
func (b *Block) DataU16() []uint16 { return b.buf.DataU16() }

// Shared reports whether more than one holder maps this block — the
// copy-on-write trigger.
func (b *Block) Shared() bool {
	b.pool.mu.Lock()
	defer b.pool.mu.Unlock()
	return b.ref > 1
}

// NewBlockPool builds a pool of capBlocks blocks of blockBytes each on dev.
// Blocks are carved from the device lazily, so an oversized pool costs
// nothing until decode depth actually reaches it.
func NewBlockPool(dev *Device, blockBytes int64, capBlocks int) *BlockPool {
	if dev == nil {
		dev = NewDevice()
	}
	if blockBytes <= 0 {
		panic(fmt.Sprintf("allocator: non-positive block size %d", blockBytes))
	}
	if capBlocks < 1 {
		panic(fmt.Sprintf("allocator: non-positive pool capacity %d", capBlocks))
	}
	return &BlockPool{dev: dev, blockBytes: blockBytes, capBlocks: capBlocks}
}

// Device returns the device the pool's blocks are carved from.
func (p *BlockPool) Device() *Device { return p.dev }

// BlockBytes returns the fixed size of every block.
func (p *BlockPool) BlockBytes() int64 { return p.blockBytes }

// CapBlocks returns the pool's total block capacity.
func (p *BlockPool) CapBlocks() int { return p.capBlocks }

// Alloc hands out a free block (ref = 1), or nil when the pool is
// exhausted — the caller's cue to scavenge caches or preempt a session.
// cow marks the allocation as a copy-on-write replacement in the stats.
func (p *BlockPool) Alloc() *Block { return p.alloc(false) }

// AllocCoW is Alloc for a copy-on-write replacement block; the allocation
// is counted in CoWCopies so tests and stats can see sharing being broken.
func (p *BlockPool) AllocCoW() *Block { return p.alloc(true) }

func (p *BlockPool) alloc(cow bool) *Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used >= p.capBlocks {
		return nil
	}
	var b *Block
	if n := len(p.freeList); n > 0 {
		b = p.freeList[n-1]
		p.freeList[n-1] = nil
		p.freeList = p.freeList[:n-1]
	} else {
		b = &Block{buf: p.dev.Malloc(p.blockBytes), pool: p}
		p.carved++
	}
	b.ref = 1
	p.used++
	if p.used > p.peakUsed {
		p.peakUsed = p.used
	}
	if cow {
		p.cowCopies++
	}
	p.dev.AddKVReserved(p.blockBytes)
	return b
}

// Commit records n bytes of the block as holding committed context rows,
// moving them onto the device's KV-used gauge. Only the exclusive holder of
// a block may commit (a shared block is read-only — copy-on-write first),
// and a block can never commit past its own size. The bytes leave the gauge
// when the last holder releases the block, so eviction at ANY point —
// including between an append and its commit — returns the gauges exactly
// to zero.
func (p *BlockPool) Commit(b *Block, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.ref != 1 {
		panic(fmt.Sprintf("allocator: commit to a block with %d holders", b.ref))
	}
	if n < 0 || b.usedBytes+n > p.blockBytes {
		panic(fmt.Sprintf("allocator: commit of %d bytes overflows block (%d/%d used)",
			n, b.usedBytes, p.blockBytes))
	}
	b.usedBytes += n
	p.dev.AddKVUsed(n)
}

// Committed returns the block's committed payload bytes.
func (b *Block) Committed() int64 {
	b.pool.mu.Lock()
	defer b.pool.mu.Unlock()
	return b.usedBytes
}

// Retain adds a holder to the block (prefix sharing). The device gauges do
// not move — the block's bytes are already reserved once, which is exactly
// the saving sharing buys.
func (p *BlockPool) Retain(b *Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.ref < 1 {
		panic("allocator: retain of a free block")
	}
	b.ref++
	if b.ref == 2 {
		p.shared++
		if p.shared > p.peakShared {
			p.peakShared = p.shared
		}
	}
}

// Release drops one holder. When the last holder leaves, the block returns
// to the free list (its device buffer retained for reuse) and its bytes
// leave the KV-reserved gauge.
func (p *BlockPool) Release(b *Block) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.ref < 1 {
		panic("allocator: release of a free block (double free)")
	}
	if b.ref == 2 {
		p.shared--
	}
	b.ref--
	if b.ref > 0 {
		return
	}
	p.used--
	p.freeList = append(p.freeList, b)
	p.dev.AddKVReserved(-p.blockBytes)
	if b.usedBytes > 0 {
		p.dev.AddKVUsed(-b.usedBytes)
		b.usedBytes = 0
	}
}

// FreeBlocks returns how many blocks an Alloc could still hand out — the
// figure block-based admission gates on.
func (p *BlockPool) FreeBlocks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capBlocks - p.used
}

// BlockPoolStats is a point-in-time snapshot of pool occupancy.
type BlockPoolStats struct {
	CapBlocks    int   // total capacity
	UsedBlocks   int   // blocks currently held
	SharedBlocks int   // blocks currently mapped by ≥2 holders
	FreeBlocks   int   // CapBlocks - UsedBlocks
	PeakUsed     int   // high-water used
	PeakShared   int   // high-water shared
	CoWCopies    int64 // cumulative copy-on-write replacement allocations
}

// Stats returns the current occupancy counters.
func (p *BlockPool) Stats() BlockPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return BlockPoolStats{
		CapBlocks:    p.capBlocks,
		UsedBlocks:   p.used,
		SharedBlocks: p.shared,
		FreeBlocks:   p.capBlocks - p.used,
		PeakUsed:     p.peakUsed,
		PeakShared:   p.peakShared,
		CoWCopies:    p.cowCopies,
	}
}

// Close frees the free list's device buffers. Closing a pool with blocks
// still held panics — it is a leak in the caller's block-table bookkeeping,
// the exact bug the shutdown interleaving tests exist to catch.
func (p *BlockPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used != 0 {
		panic(fmt.Sprintf("allocator: pool closed with %d blocks still held", p.used))
	}
	for _, b := range p.freeList {
		p.dev.Free(b.buf)
	}
	p.freeList = nil
	p.capBlocks = 0
}
