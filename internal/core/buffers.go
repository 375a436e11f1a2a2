package core

import (
	"math/bits"
	"sync"

	"repro/internal/codes"
)

// Buffers is a reusable shard arena backed by sync.Pool. The steady-state
// encode/reconstruct paths (EncodeStripeInto, ReconstructStripeInto,
// RebuildDataInto) draw every parity and decode-output buffer from it, so a
// long-running server performs zero heap allocations per stripe once the
// pools are warm. The store's read path draws device runs, wire frames and
// assembled objects — 1 to 20 cells, 64 KiB to over a megabyte — from one.
//
// Buffers are pooled in power-of-two size classes, one pool per class, so
// mixed sizes never evict each other: GetShard(n) serves class ⌈log2 n⌉ and
// allocates a fresh buffer with exactly that class's capacity, and PutShard
// files a buffer under ⌊log2 cap⌋. Every buffer in class c has capacity at
// least 2^c, so a recycled buffer is never shorter than asked for. A second
// pool holds empty *[]byte containers so PutShard never allocates a header.
//
// The zero value is ready to use, and all methods are safe for concurrent
// use. Buffers returned by GetShard have unspecified contents; every
// consumer fully overwrites them.
type Buffers struct {
	classes [bits.UintSize]sync.Pool // *[]byte with non-nil backing array
	headers sync.Pool                // *[]byte with nil backing array
}

// GetShard returns a buffer of exactly size bytes, reusing pooled memory of
// size's class when any is available.
func (b *Buffers) GetShard(size int) []byte {
	if size <= 0 {
		return make([]byte, size)
	}
	c := bits.Len(uint(size - 1)) // ⌈log2 size⌉
	if c >= bits.UintSize-1 {
		return make([]byte, size) // no power-of-two capacity fits an int
	}
	if v := b.classes[c].Get(); v != nil {
		p := v.(*[]byte)
		s := *p
		*p = nil
		b.headers.Put(p)
		return s[:size]
	}
	return make([]byte, size, 1<<c)
}

// PutShard returns a buffer to the arena for reuse. The caller must not
// touch buf afterwards. Putting a buffer that did not come from GetShard is
// fine; zero-capacity buffers are ignored.
func (b *Buffers) PutShard(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	var p *[]byte
	if v := b.headers.Get(); v != nil {
		p = v.(*[]byte)
	} else {
		p = new([]byte)
	}
	*p = buf[:cap(buf)]
	b.classes[bits.Len(uint(cap(buf)))-1].Put(p) // ⌊log2 cap⌋
}

// PutShards returns every non-nil buffer in bufs to the arena and nils the
// slots, a convenience for recycling a whole stripe of cells at once.
func (b *Buffers) PutShards(bufs [][]byte) {
	for i, s := range bufs {
		if s != nil {
			b.PutShard(s)
			bufs[i] = nil
		}
	}
}

// stripeScratch holds the per-call shard-pointer slices the stripe
// operations need, recycled through a pool so the hot paths allocate
// nothing. The slices are sized for the scheme on first use and keep their
// capacity across calls.
type stripeScratch struct {
	group     [][]byte // one code group's cells, length n
	groupData [][]byte // one group's data cells, length k
	parity    [][]byte // one group's parity cells, length n-k
	target    [1]int   // single-element target list for RebuildDataInto
}

var stripeScratchPool = sync.Pool{New: func() any { return new(stripeScratch) }}

func getStripeScratch(n, k int) *stripeScratch {
	sc := stripeScratchPool.Get().(*stripeScratch)
	sc.group = growCells(sc.group, n)
	sc.groupData = growCells(sc.groupData, k)
	sc.parity = growCells(sc.parity, n-k)
	return sc
}

func putStripeScratch(sc *stripeScratch) {
	clearCells(sc.group)
	clearCells(sc.groupData)
	clearCells(sc.parity)
	stripeScratchPool.Put(sc)
}

// growCells resizes s to length n, reusing capacity when possible.
func growCells(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}

// clearCells nils every slot so pooled scratch never pins shard memory.
func clearCells(s [][]byte) {
	for i := range s {
		s[i] = nil
	}
}

var _ codes.Allocator = (*Buffers)(nil)
