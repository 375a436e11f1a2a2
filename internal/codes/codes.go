// Package codes defines the candidate-code abstraction of the EC-FRM paper
// (§IV-A) and a shared generator-matrix engine the concrete codes build on.
//
// A candidate code is a systematic one-row erasure code: a row holds n
// elements, the first k of which are data and the remaining n-k parity.
// Reed-Solomon (k,m) and Azure LRC (k,l,m) are the two candidates the paper
// integrates; both are expressed here through an n×k generator matrix G whose
// first k rows are the identity, so element i of a row equals G.Row(i)·data.
//
// All erasure decoding is done generically: an element is recoverable from a
// surviving set exactly when its generator row lies in the row span of the
// survivors' rows (matrix.SpanSolve). This handles MDS and non-MDS
// candidates (LRC) uniformly, including LRC's beyond-guarantee recoverable
// patterns.
//
// Base is generic over the symbol type, so one engine serves GF(2^8) codes
// and the GF(2^16) wide-stripe codes, whose n = k+m can exceed GF(2^8)'s 256
// distinct points. Wide symbols are packed little-endian in ordinary byte
// shards, so every code satisfies the same Code interface and flows through
// the stores, the streaming pipeline and the fan-out executor unchanged;
// shard sizes just have to hold whole symbols.
package codes

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/matrix"
)

// ErrUnrecoverable is returned when an erasure pattern cannot be decoded.
var ErrUnrecoverable = errors.New("codes: erasure pattern unrecoverable")

// ErrShardSize is returned when shards passed to Encode/Reconstruct are
// missing, ragged, or of inconsistent counts.
var ErrShardSize = errors.New("codes: invalid shard sizes")

// Code is a systematic one-row candidate erasure code.
type Code interface {
	// Name identifies the code family and parameters, e.g. "RS(6,3)".
	Name() string
	// N is the total number of elements per row.
	N() int
	// K is the number of data elements per row.
	K() int
	// FaultTolerance is the largest f such that EVERY f-element erasure
	// pattern is decodable. MDS codes have f = N-K; LRC has f < N-K but
	// recovers many larger patterns too (see CanRecover).
	FaultTolerance() int
	// Encode computes the n-k parity shards for k equally sized data shards.
	Encode(data [][]byte) ([][]byte, error)
	// Reconstruct rebuilds every nil shard in the length-n slice in place,
	// given the non-nil survivors. Returns ErrUnrecoverable if the pattern
	// is information-theoretically lost.
	Reconstruct(shards [][]byte) error
	// ReconstructElements rebuilds only the listed target elements in
	// place, succeeding whenever those targets (not necessarily every
	// erased shard) are decodable from the survivors.
	ReconstructElements(shards [][]byte, targets []int) error
	// CanRecover reports whether the given erased element indices are
	// jointly decodable from the survivors.
	CanRecover(erased []int) bool
	// RecoverySets returns candidate read sets for rebuilding element idx
	// when idx alone is erased, cheapest (fewest reads) first. Every set
	// consists of surviving element indices that suffice to rebuild idx.
	// At least one set is always returned for a valid code.
	RecoverySets(idx int) [][]int
	// ApplyDelta folds an in-place update of data element elem into the
	// parity shards: given delta = newData XOR oldData, each parity shard
	// p becomes p + coeff(p, elem)·delta. This is the classic
	// read-modify-write small-write path: the data disks other than elem
	// are never touched.
	ApplyDelta(parity [][]byte, elem int, delta []byte) error
}

// Allocator hands out shard buffers for decode outputs. Implementations must
// return a zeroable buffer of exactly the requested length; they may recycle
// memory (core.Buffers does, via sync.Pool), so callers own the buffer until
// they choose to return it.
type Allocator interface {
	GetShard(size int) []byte
}

// heapAlloc is the fallback Allocator: plain make. Zero-sized, so converting
// it to the Allocator interface does not allocate.
type heapAlloc struct{}

func (heapAlloc) GetShard(size int) []byte { return make([]byte, size) }

// IntoEncoder is implemented by codes whose encode can write parity into
// caller-provided cells without allocating.
type IntoEncoder interface {
	EncodeInto(parity, data [][]byte) error
}

// IntoReconstructor is implemented by codes whose decode can draw output
// buffers from an Allocator instead of the heap.
type IntoReconstructor interface {
	ReconstructInto(shards [][]byte, alloc Allocator) error
	ReconstructElementsInto(shards [][]byte, targets []int, alloc Allocator) error
}

// WideSymbolCode is implemented by codes whose shard sizes must be a
// multiple of some width: SymbolBytes is that granularity in bytes — the
// field symbol width for generator-matrix codes, the packet count for CRS.
// Codes that don't implement it operate byte-wise (width 1).
type WideSymbolCode interface {
	SymbolBytes() int
}

// SymbolBytesOf returns the symbol width of a code: c's SymbolBytes when it
// implements WideSymbolCode, else 1.
func SymbolBytesOf(c Code) int {
	if w, ok := c.(WideSymbolCode); ok {
		return w.SymbolBytes()
	}
	return 1
}

// PositionalCoder reports whether the code's kernel is byte-positional:
// parity byte b depends only on the data shards' bytes at offset b, so
// encoding a byte sub-range of every shard independently yields the same
// result as encoding whole shards. Generator-matrix codes are positional;
// CRS is not (its packet layout mixes offsets). Intra-stripe chunking is
// only valid for positional codes.
type PositionalCoder interface {
	PositionalKernel() bool
}

// baseScratch holds the index and shard-pointer slices a decode needs,
// recycled through a pool so steady-state reconstruct allocates nothing.
type baseScratch struct {
	availIdx    []int
	targetIdx   []int
	availShards [][]byte
	out         [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(baseScratch) }}

func getScratch() *baseScratch { return scratchPool.Get().(*baseScratch) }

func putScratch(s *baseScratch) {
	s.availIdx = s.availIdx[:0]
	s.targetIdx = s.targetIdx[:0]
	for i := range s.availShards {
		s.availShards[i] = nil
	}
	s.availShards = s.availShards[:0]
	for i := range s.out {
		s.out[i] = nil
	}
	s.out = s.out[:0]
	scratchPool.Put(s)
}

// maskWords is the width of one erasure-pattern bitmask in the decode
// cache; it bounds supported n at 64·maskWords elements.
const maskWords = 16

// MaxN is the widest code Base supports (decode-cache mask width).
const MaxN = 64 * maskWords

// MaxElements is the largest n a code over the field of S can have: the
// field's distinct points for GF(2^8), the decode-cache width for GF(2^16).
func MaxElements[S matrix.Symbol]() int { return min(matrix.FieldOf[S]().Order(), MaxN) }

// Base implements the generator-matrix-driven parts of Code over the field
// of S. Concrete codes embed it and supply Name and RecoverySets.
type Base[S matrix.Symbol] struct {
	f   matrix.Field[S]
	gen *matrix.Matrix[S] // n×k, first k rows identity
	// parityMat is gen's parity block (rows k..n), precomputed so the encode
	// hot path never re-slices the generator.
	parityMat *matrix.Matrix[S]
	n         int
	k         int
	ft        int
	// decodeCache memoizes SpanSolve coefficient matrices keyed by the
	// (available, targets) bitmask pair — a storage system repairs the
	// same failure pattern for every stripe, so the solve is paid once.
	// Guarded by decodeMu rather than sync.Map: loading an array key
	// through an interface would box it and allocate, which the zero-alloc
	// decode path cannot afford.
	decodeMu    sync.RWMutex
	decodeCache map[[2 * maskWords]uint64]*matrix.Matrix[S]
}

// NewBase wraps an n×k systematic generator matrix with the fault
// tolerance its constructor declares. Searching every erasure pattern
// instead is combinatorial (C(132,4) ≈ 18M solves for a (128,4) code), so
// the rule is: a construction with a closed-form guarantee (Cauchy blocks
// are MDS) declares it, and one without (LRC) declares its target and
// audits it with VerifyFaultTolerance. NewBase panics if the generator is
// malformed or the declaration exceeds n-k — the codes own their
// constructors, so a violation is a programming error, not an input error.
func NewBase[S matrix.Symbol](gen *matrix.Matrix[S], declaredFT int) *Base[S] {
	n, k := gen.Rows(), gen.Cols()
	if n < k || k < 1 {
		panic(fmt.Sprintf("codes: invalid generator %d×%d", n, k))
	}
	if n > MaxN {
		panic(fmt.Sprintf("codes: n=%d exceeds limit %d", n, MaxN))
	}
	if !gen.SubMatrix(0, k, 0, k).IsIdentity() {
		panic("codes: generator is not systematic")
	}
	if declaredFT < 0 || declaredFT > n-k {
		panic(fmt.Sprintf("codes: declared fault tolerance %d out of [0,%d]", declaredFT, n-k))
	}
	return &Base[S]{
		f:           matrix.FieldOf[S](),
		gen:         gen,
		parityMat:   gen.SubMatrix(k, n, 0, k),
		n:           n,
		k:           k,
		ft:          declaredFT,
		decodeCache: make(map[[2 * maskWords]uint64]*matrix.Matrix[S]),
	}
}

// N returns the total number of elements per row.
func (b *Base[S]) N() int { return b.n }

// K returns the number of data elements per row.
func (b *Base[S]) K() int { return b.k }

// FaultTolerance returns the declared guaranteed erasure tolerance.
func (b *Base[S]) FaultTolerance() int { return b.ft }

// Generator returns the generator matrix. Callers must not modify it.
func (b *Base[S]) Generator() *matrix.Matrix[S] { return b.gen }

// SymbolBytes returns the symbol width: shard sizes must be a multiple.
func (b *Base[S]) SymbolBytes() int { return b.f.SymbolBytes() }

// PositionalKernel reports true: the generator matrix applies symbol
// position by symbol position, so any whole-symbol byte sub-range of every
// shard encodes independently.
func (b *Base[S]) PositionalKernel() bool { return true }

// Label formats a code name from its family and parameters, tagging codes
// over wide fields with the symbol width: "RS(6,3)", "LRC16(64,8,2)".
// Persisted manifests match schemes by this name.
func (b *Base[S]) Label(family string, params ...int) string {
	if bits := 8 * b.f.SymbolBytes(); bits > 8 {
		family += strconv.Itoa(bits)
	}
	ps := make([]string, len(params))
	for i, p := range params {
		ps[i] = strconv.Itoa(p)
	}
	return family + "(" + strings.Join(ps, ",") + ")"
}

// solveCoefficients returns the SpanSolve coefficient matrix expressing the
// target rows in terms of the available rows, memoized per pattern.
func (b *Base[S]) solveCoefficients(avail, targets []int) (*matrix.Matrix[S], error) {
	var key [2 * maskWords]uint64
	for _, a := range avail {
		key[a>>6] |= 1 << uint(a&63)
	}
	for _, t := range targets {
		key[maskWords+t>>6] |= 1 << uint(t&63)
	}
	b.decodeMu.RLock()
	coeff, ok := b.decodeCache[key]
	b.decodeMu.RUnlock()
	if ok {
		return coeff, nil
	}
	coeff, err := matrix.SpanSolve(b.gen.SelectRows(avail), b.gen.SelectRows(targets))
	if err != nil {
		return nil, err
	}
	b.decodeMu.Lock()
	b.decodeCache[key] = coeff
	b.decodeMu.Unlock()
	return coeff, nil
}

// checkSize rejects a shard size that is not a whole number of symbols.
func (b *Base[S]) checkSize(what string, size int) error {
	if sb := b.f.SymbolBytes(); size%sb != 0 {
		return fmt.Errorf("%w: %s size %d not a whole number of %d-byte symbols", ErrShardSize, what, size, sb)
	}
	return nil
}

func (b *Base[S]) checkData(data [][]byte) (int, error) {
	if len(data) != b.k {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", ErrShardSize, len(data), b.k)
	}
	size := -1
	for i, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrShardSize, i)
		}
		if size == -1 {
			size = len(d)
		} else if len(d) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(d), size)
		}
	}
	return size, b.checkSize("shard", size)
}

// Encode computes the parity shards for the given data shards.
func (b *Base[S]) Encode(data [][]byte) ([][]byte, error) {
	size, err := b.checkData(data)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, b.n-b.k)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	b.parityMat.MulVec(parity, data)
	return parity, nil
}

// EncodeInto computes the parity shards into the caller-provided cells —
// the zero-allocation encode path. parity must hold n-k buffers, each the
// size of a data shard; contents are overwritten.
func (b *Base[S]) EncodeInto(parity, data [][]byte) error {
	size, err := b.checkData(data)
	if err != nil {
		return err
	}
	if len(parity) != b.n-b.k {
		return fmt.Errorf("%w: got %d parity cells, want %d", ErrShardSize, len(parity), b.n-b.k)
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity cell %d has %d bytes, want %d", ErrShardSize, i, len(p), size)
		}
	}
	b.parityMat.MulVec(parity, data)
	return nil
}

// Reconstruct rebuilds nil shards in place. shards must have length n.
func (b *Base[S]) Reconstruct(shards [][]byte) error {
	return b.ReconstructInto(shards, heapAlloc{})
}

// ReconstructInto rebuilds nil shards in place, drawing the output buffers
// from alloc — the zero-allocation decode path when alloc recycles memory.
func (b *Base[S]) ReconstructInto(shards [][]byte, alloc Allocator) error {
	return b.rebuild(shards, nil, true, alloc)
}

// ReconstructElements rebuilds only the listed target elements from the
// non-nil shards, writing the results into shards. Unlike Reconstruct it
// succeeds as long as the *targets* are in the span of the survivors, even
// when other erased elements are unrecoverable — exactly the degraded-read
// situation, where a minimal recovery set was read and nothing else.
func (b *Base[S]) ReconstructElements(shards [][]byte, targets []int) error {
	return b.ReconstructElementsInto(shards, targets, heapAlloc{})
}

// ReconstructElementsInto is ReconstructElements drawing output buffers from
// alloc — the zero-allocation degraded-read path when alloc recycles memory.
func (b *Base[S]) ReconstructElementsInto(shards [][]byte, targets []int, alloc Allocator) error {
	return b.rebuild(shards, targets, false, alloc)
}

// rebuild decodes the nil shards among targets — or every nil shard when
// all is set — from the non-nil survivors.
func (b *Base[S]) rebuild(shards [][]byte, targets []int, all bool, alloc Allocator) error {
	if len(shards) != b.n {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardSize, len(shards), b.n)
	}
	sc := getScratch()
	defer putScratch(sc)
	size := -1
	for i, s := range shards {
		if s == nil {
			if all {
				sc.targetIdx = append(sc.targetIdx, i)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
		sc.availIdx = append(sc.availIdx, i)
	}
	for _, t := range targets {
		if t < 0 || t >= b.n {
			return fmt.Errorf("%w: target %d out of [0,%d)", ErrShardSize, t, b.n)
		}
		if shards[t] == nil {
			sc.targetIdx = append(sc.targetIdx, t)
		}
	}
	missing := sc.targetIdx
	if len(missing) == 0 {
		return nil
	}
	if size == -1 {
		return fmt.Errorf("%w: all shards erased", ErrShardSize)
	}
	if err := b.checkSize("shard", size); err != nil {
		return err
	}
	coeff, err := b.solveCoefficients(sc.availIdx, missing)
	if err != nil {
		return fmt.Errorf("%w: erased %v", ErrUnrecoverable, missing)
	}
	for _, a := range sc.availIdx {
		sc.availShards = append(sc.availShards, shards[a])
	}
	for range missing {
		sc.out = append(sc.out, alloc.GetShard(size))
	}
	coeff.MulVec(sc.out, sc.availShards)
	for i, t := range missing {
		shards[t] = sc.out[i]
	}
	return nil
}

// ApplyDelta updates the n-k parity shards for an in-place change of data
// element elem, where delta is newData XOR oldData.
func (b *Base[S]) ApplyDelta(parity [][]byte, elem int, delta []byte) error {
	if len(parity) != b.n-b.k {
		return fmt.Errorf("%w: got %d parity shards, want %d", ErrShardSize, len(parity), b.n-b.k)
	}
	if elem < 0 || elem >= b.k {
		return fmt.Errorf("%w: data element %d out of [0,%d)", ErrShardSize, elem, b.k)
	}
	if err := b.checkSize("delta", len(delta)); err != nil {
		return err
	}
	for t, p := range parity {
		if len(p) != len(delta) {
			return fmt.Errorf("%w: parity %d has %d bytes, delta %d", ErrShardSize, t, len(p), len(delta))
		}
	}
	for t, p := range parity {
		b.f.MulAddSlice(b.gen.At(b.k+t, elem), p, delta)
	}
	return nil
}

// CanRecover reports whether the erasure pattern is decodable.
func (b *Base[S]) CanRecover(erased []int) bool {
	if len(erased) == 0 {
		return true
	}
	mark := make([]bool, b.n)
	for _, e := range erased {
		if e < 0 || e >= b.n {
			return false
		}
		mark[e] = true
	}
	avail := make([]int, 0, b.n)
	for i := 0; i < b.n; i++ {
		if !mark[i] {
			avail = append(avail, i)
		}
	}
	_, err := matrix.SpanSolve(b.gen.SelectRows(avail), b.gen.SelectRows(erased))
	return err == nil
}

// VerifySet reports whether the surviving set `set` suffices to rebuild
// element idx. Used by tests and by planners validating recovery sets.
func (b *Base[S]) VerifySet(idx int, set []int) bool {
	_, err := matrix.SpanSolve(b.gen.SelectRows(set), b.gen.SelectRows([]int{idx}))
	return err == nil
}

// VerifyFaultTolerance checks the declared tolerance against real erasure
// patterns: every pattern of size ft must be recoverable. When the total
// pattern count is at most maxExhaustive it enumerates all of them (a
// proof); otherwise it draws `samples` random patterns with the given next
// function (an audit). Returns the first failing pattern, or nil.
//
// Constructors without a closed-form guarantee call this at build time
// with a modest budget; tests audit with large ones.
func (b *Base[S]) VerifyFaultTolerance(maxExhaustive, samples int, next func(n int) int) []int {
	f := b.ft
	if f == 0 {
		return nil
	}
	total := 1
	for i := 0; i < f; i++ {
		total *= b.n - i
		total /= i + 1
		if total > maxExhaustive {
			break
		}
	}
	if total <= maxExhaustive {
		var bad []int
		idx := make([]int, f)
		var rec func(start, depth int) bool
		rec = func(start, depth int) bool {
			if depth == f {
				if !b.CanRecover(idx) {
					bad = append([]int(nil), idx...)
					return false
				}
				return true
			}
			for i := start; i <= b.n-(f-depth); i++ {
				idx[depth] = i
				if !rec(i+1, depth+1) {
					return false
				}
			}
			return true
		}
		rec(0, 0)
		return bad
	}
	pattern := make([]int, 0, f)
	used := make(map[int]bool, f)
	for s := 0; s < samples; s++ {
		pattern = pattern[:0]
		clear(used)
		for len(pattern) < f {
			e := next(b.n)
			if !used[e] {
				used[e] = true
				pattern = append(pattern, e)
			}
		}
		if !b.CanRecover(pattern) {
			return append([]int(nil), pattern...)
		}
	}
	return nil
}

var (
	_ IntoEncoder       = (*Base[uint8])(nil)
	_ IntoReconstructor = (*Base[uint16])(nil)
	_ WideSymbolCode    = (*Base[uint16])(nil)
	_ PositionalCoder   = (*Base[uint8])(nil)
)
