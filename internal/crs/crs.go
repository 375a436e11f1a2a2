// Package crs implements Cauchy Reed-Solomon coding (Blömer et al. 1995),
// the XOR-based horizontal code the EC-FRM paper surveys in §II-B: the
// GF(2^w) Cauchy generator is expanded into a GF(2) bit matrix, each element
// is split into w packets, and encoding becomes pure XOR of packets — no
// field multiplications on the data path. This mirrors Jerasure's
// cauchy_original coding path.
//
// CRS(k,m) is the same linear code as the matrix Reed-Solomon in
// internal/rs built from the same Cauchy block, so it is MDS and slots into
// EC-FRM as a candidate code; what changes is the encode/decode kernel.
// CRS16(k,m) is the identical construction over GF(2^16) for wide stripes.
// Width enters only through packet counts and bit-row ranges, so one body
// serves w=8 and w=16.
package crs

import (
	"fmt"
	"sync"

	"repro/internal/bitmatrix"
	"repro/internal/codes"
	"repro/internal/gf"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// invKeyWords sizes the survivor-selection bitmap used as the
// inverse-cache key: enough 64-bit words to cover the widest supported
// stripe (codes.MaxN elements).
const invKeyWords = codes.MaxN / 64

// Code is a Cauchy Reed-Solomon code with parameters (k, m) over the field
// of S: CRS(k,m) for uint8 (w=8), CRS16(k,m) for uint16 (w=16). Elements
// are split into w packets, so shard sizes must be multiples of w bytes.
//
// It embeds the matrix RS code with the same generator for the parts that
// depend only on the linear code — tolerance, recovery sets, span checks —
// and overrides every data-path method with the XOR kernel.
type Code[S matrix.Symbol] struct {
	*rs.Code[S]
	w, k, m int
	// bitGen is the (n·w)×(k·w) binary generator; rows of element i are
	// bit-rows [i·w, (i+1)·w).
	bitGen *bitmatrix.Matrix
	// paritySub is bitGen's parity block restricted to the data columns —
	// the matrix every encode applies — precomputed so encodes never
	// re-extract it.
	paritySub *bitmatrix.Matrix
	// sched is the precomputed XOR schedule for EncodeScheduled.
	sched *Schedule
	// pkPool recycles the (k+m)·w packet-pointer tables the encode paths
	// need, so steady-state encodes allocate only the parity shards — or
	// nothing at all on the EncodeInto path.
	pkPool sync.Pool
	// invMu guards invCache, which memoizes the inverted survivor
	// sub-generator per survivor selection: a storage system repairs the
	// same failure pattern for every stripe, and the k·w×k·w GF(2)
	// inversion dwarfs the XOR work for small shards.
	invMu    sync.RWMutex
	invCache map[[invKeyWords]uint64]*bitmatrix.Matrix
}

// New constructs CRS(k,m) over GF(2^8).
func New(k, m int) (*Code[uint8], error) { return newCode(rs.New(k, m)) }

// New16 constructs the wide-stripe CRS16(k,m) over GF(2^16).
func New16(k, m int) (*Code[uint16], error) { return newCode(rs.New16(k, m)) }

// Must constructs CRS(k,m) and panics on invalid parameters.
func Must(k, m int) *Code[uint8] { return must(New(k, m)) }

// Must16 constructs CRS16(k,m) and panics on invalid parameters.
func Must16(k, m int) *Code[uint16] { return must(New16(k, m)) }

func must[C any](c C, err error) C {
	if err != nil {
		panic(err)
	}
	return c
}

// newCode expands the RS generator into its binary form and precomputes the
// parity sub-matrix, the XOR schedule, and the packet-table pool.
func newCode[S matrix.Symbol](r *rs.Code[S], err error) (*Code[S], error) {
	if err != nil {
		return nil, fmt.Errorf("crs: %w", err)
	}
	k, m := r.K(), r.M()
	w := 8 * r.SymbolBytes()
	c := &Code[S]{
		Code: r,
		w:    w, k: k, m: m,
		bitGen:   expand(r.Generator(), w),
		invCache: make(map[[invKeyWords]uint64]*bitmatrix.Matrix),
	}
	c.paritySub = selectCols(c.bitGen.SelectRows(rowRange(k*w, (k+m)*w)), 0, k*w)
	c.sched = buildSchedule(c.paritySub, w, k, m)
	c.pkPool.New = func() any {
		s := make([][]byte, (k+m)*w)
		return &s
	}
	return c, nil
}

// expand converts a GF(2^w) matrix into its binary equivalent: each field
// element a becomes the w×w companion block whose column j holds the bits of
// a·x^j, so block-vector products over GF(2) agree with field products.
func expand[S matrix.Symbol](m *matrix.Matrix[S], w int) *bitmatrix.Matrix {
	f := matrix.FieldOf[S]()
	out := bitmatrix.New(m.Rows()*w, m.Cols()*w)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for col := 0; col < w; col++ {
				v := f.Mul(a, f.Exp(2, col)) // a·x^col
				for row := 0; row < w; row++ {
					if v>>uint(row)&1 == 1 {
						out.Set(i*w+row, j*w+col, true)
					}
				}
			}
		}
	}
	return out
}

// Name returns "CRS(k,m)", or "CRS16(k,m)" over GF(2^16).
func (c *Code[S]) Name() string { return c.Label("CRS", c.k, c.m) }

// PositionalKernel reports false, overriding the embedded code: CRS shards
// use the packet layout (w bit-plane sub-blocks per shard), so a parity byte
// mixes data bytes from different offsets and byte-range chunking of shards
// would corrupt the code.
func (c *Code[S]) PositionalKernel() bool { return false }

// SymbolBytes reports the shard-size granularity, overriding the field
// symbol width: the packet layout needs shard sizes divisible by w bytes.
func (c *Code[S]) SymbolBytes() int { return c.w }

// BitGenerator returns the binary generator matrix. Callers must not modify
// it.
func (c *Code[S]) BitGenerator() *bitmatrix.Matrix { return c.bitGen }

// Schedule returns the code's precomputed XOR schedule.
func (c *Code[S]) Schedule() *Schedule { return c.sched }

// packets splits a shard into w equal packets (packet p holds bit-plane p's
// bytes: Jerasure's layout is simply w contiguous sub-blocks).
func packets(shard []byte, w int) [][]byte {
	out := make([][]byte, w)
	packetsInto(out, shard, w)
	return out
}

// packetsInto writes the w packet views of shard into dst without
// allocating. dst must have length w.
func packetsInto(dst [][]byte, shard []byte, w int) {
	plen := len(shard) / w
	for p := 0; p < w; p++ {
		dst[p] = shard[p*plen : (p+1)*plen]
	}
}

// checkData validates data shard count, consistency, and the packet-size
// constraint, returning the common shard size.
func (c *Code[S]) checkData(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", codes.ErrShardSize, len(data), c.k)
	}
	size := -1
	for i, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", codes.ErrShardSize, i)
		}
		if size == -1 {
			size = len(d)
		}
		if len(d) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", codes.ErrShardSize, i, len(d), size)
		}
	}
	if size%c.w != 0 {
		return 0, fmt.Errorf("%w: shard size %d not a multiple of %d", codes.ErrShardSize, size, c.w)
	}
	return size, nil
}

// Encode computes parity shards using only XOR operations on packets. Shard
// sizes must be multiples of w bytes.
func (c *Code[S]) Encode(data [][]byte) ([][]byte, error) {
	size, err := c.checkData(data)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	c.encodePacked(parity, data)
	return parity, nil
}

// EncodeInto computes parity into caller-provided cells — the
// zero-allocation encode path. parity must hold m buffers of the data shard
// size; contents are overwritten.
func (c *Code[S]) EncodeInto(parity, data [][]byte) error {
	size, err := c.checkData(data)
	if err != nil {
		return err
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity cells, want %d", codes.ErrShardSize, len(parity), c.m)
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity cell %d has %d bytes, want %d", codes.ErrShardSize, i, len(p), size)
		}
	}
	c.encodePacked(parity, data)
	return nil
}

// encodePacked runs the XOR encode through a pooled packet-pointer table.
// Inputs are pre-validated.
func (c *Code[S]) encodePacked(parity, data [][]byte) {
	tp := c.pkPool.Get().(*[][]byte)
	table := *tp
	for i, d := range data {
		packetsInto(table[i*c.w:(i+1)*c.w], d, c.w)
	}
	out := table[c.k*c.w : (c.k+c.m)*c.w]
	for i, p := range parity {
		packetsInto(out[i*c.w:(i+1)*c.w], p, c.w)
	}
	// Parity bit-rows over the data columns are all we need since the left
	// block of the generator is identity.
	c.paritySub.MulVec(out, table[:c.k*c.w])
	for i := range table {
		table[i] = nil // don't pin shard memory inside the pool
	}
	c.pkPool.Put(tp)
}

// Reconstruct rebuilds every nil shard using the pure-XOR decode path: pick
// k surviving elements, invert their k·w×k·w binary sub-generator, recover
// the data packets, and re-encode the erased elements. CRS shards use the
// packet layout, so decoding must go through the binary generator; the
// embedded field-arithmetic decoder would silently corrupt them. It fails
// with codes.ErrUnrecoverable beyond m erasures.
func (c *Code[S]) Reconstruct(shards [][]byte) error {
	n := c.k + c.m
	if len(shards) != n {
		return fmt.Errorf("%w: got %d shards, want %d", codes.ErrShardSize, len(shards), n)
	}
	var avail, erased []int
	size := -1
	for i, s := range shards {
		if s == nil {
			erased = append(erased, i)
			continue
		}
		if size == -1 {
			size = len(s)
		}
		if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", codes.ErrShardSize, i, len(s), size)
		}
		avail = append(avail, i)
	}
	if len(erased) == 0 {
		return nil
	}
	if len(avail) < c.k {
		return fmt.Errorf("%w: only %d survivors for k=%d", codes.ErrUnrecoverable, len(avail), c.k)
	}
	if size%c.w != 0 {
		return fmt.Errorf("%w: shard size %d not a multiple of %d", codes.ErrShardSize, size, c.w)
	}
	use := avail[:c.k]
	inv, err := c.survivorInverse(use)
	if err != nil {
		return fmt.Errorf("%w: survivor sub-generator singular", codes.ErrUnrecoverable)
	}
	// Recover all data packets.
	in := make([][]byte, 0, c.k*c.w)
	for _, e := range use {
		in = append(in, packets(shards[e], c.w)...)
	}
	dataShards := make([][]byte, c.k)
	dataPk := make([][]byte, 0, c.k*c.w)
	for i := range dataShards {
		dataShards[i] = make([]byte, size)
		dataPk = append(dataPk, packets(dataShards[i], c.w)...)
	}
	inv.MulVec(dataPk, in)
	// Re-emit the erased elements from the recovered data.
	for _, e := range erased {
		shard := make([]byte, size)
		outPk := packets(shard, c.w)
		rows := rowRange(e*c.w, (e+1)*c.w)
		selectCols(c.bitGen.SelectRows(rows), 0, c.k*c.w).MulVec(outPk, dataPk)
		shards[e] = shard
	}
	return nil
}

// ReconstructInto overrides the promoted field-arithmetic method so the XOR
// path wins no matter which interface the caller reached us through. The
// allocator is unused — the XOR decode manages its own buffers.
func (c *Code[S]) ReconstructInto(shards [][]byte, _ codes.Allocator) error {
	return c.Reconstruct(shards)
}

// ReconstructElements rebuilds the targets (and, as a side effect of the
// XOR decode, any other recoverable nil shard). For an MDS code the targets
// are recoverable exactly when at least k survivors exist, so delegating to
// the full decode loses no generality.
func (c *Code[S]) ReconstructElements(shards [][]byte, targets []int) error {
	for _, t := range targets {
		if t < 0 || t >= c.k+c.m {
			return fmt.Errorf("%w: target %d out of range", codes.ErrShardSize, t)
		}
	}
	return c.Reconstruct(shards)
}

// ReconstructElementsInto overrides the promoted method for the same reason
// as ReconstructInto.
func (c *Code[S]) ReconstructElementsInto(shards [][]byte, targets []int, _ codes.Allocator) error {
	return c.ReconstructElements(shards, targets)
}

// ApplyDelta folds an update of data element elem into the parity shards
// through the binary generator: each parity element's w×w block for elem is
// applied to the delta's packets and XORed in. Pure XOR, like the encode.
func (c *Code[S]) ApplyDelta(parity [][]byte, elem int, delta []byte) error {
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity shards, want %d", codes.ErrShardSize, len(parity), c.m)
	}
	if elem < 0 || elem >= c.k {
		return fmt.Errorf("%w: data element %d out of [0,%d)", codes.ErrShardSize, elem, c.k)
	}
	if len(delta)%c.w != 0 {
		return fmt.Errorf("%w: delta size %d not a multiple of %d", codes.ErrShardSize, len(delta), c.w)
	}
	for t, p := range parity {
		if len(p) != len(delta) {
			return fmt.Errorf("%w: parity %d has %d bytes, delta %d", codes.ErrShardSize, t, len(p), len(delta))
		}
	}
	deltaPk := packets(delta, c.w)
	buf := make([]byte, len(delta))
	for t := 0; t < c.m; t++ {
		block := selectCols(c.bitGen.SelectRows(rowRange((c.k+t)*c.w, (c.k+t+1)*c.w)), elem*c.w, (elem+1)*c.w)
		block.MulVec(packets(buf, c.w), deltaPk) // MulVec zeroes buf's packets first
		gf.AddSlice(parity[t], buf)
	}
	return nil
}

// survivorInverse returns the inverted k·w×k·w sub-generator for the given
// survivor elements, memoized per selection: repairing a failure pattern
// touches every stripe with the same survivors, so the GF(2) inversion is
// paid once.
func (c *Code[S]) survivorInverse(use []int) (*bitmatrix.Matrix, error) {
	var key [invKeyWords]uint64
	for _, e := range use {
		key[e/64] |= 1 << (uint(e) % 64)
	}
	c.invMu.RLock()
	inv, ok := c.invCache[key]
	c.invMu.RUnlock()
	if ok {
		return inv, nil
	}
	bitRows := make([]int, 0, c.k*c.w)
	for _, e := range use {
		bitRows = append(bitRows, rowRange(e*c.w, (e+1)*c.w)...)
	}
	inv, err := c.bitGen.SelectRows(bitRows).Invert()
	if err != nil {
		return nil, err
	}
	c.invMu.Lock()
	c.invCache[key] = inv
	c.invMu.Unlock()
	return inv, nil
}

// XORCount returns the number of packet XORs one stripe encode performs —
// the cost metric CRS constructions optimize (set bits in the parity block
// beyond the first contribution of each output packet).
func (c *Code[S]) XORCount() int {
	count := 0
	for i := c.k * c.w; i < (c.k+c.m)*c.w; i++ {
		w := c.bitGen.RowWeight(i)
		if w > 0 {
			count += w - 1
		}
	}
	return count
}

// NaiveXOROps returns the operation count of the unscheduled encode (one op
// per set generator bit), for comparison with Schedule().Ops().
func (c *Code[S]) NaiveXOROps() int {
	ops := 0
	for r := c.k * c.w; r < (c.k+c.m)*c.w; r++ {
		ops += c.bitGen.RowWeight(r)
	}
	return ops
}

// EncodeScheduled computes parity shards by running the XOR schedule. The
// result is bit-identical to Encode but performs fewer XOR passes when rows
// overlap. Shard sizes must be multiples of w bytes.
func (c *Code[S]) EncodeScheduled(data [][]byte) ([][]byte, error) {
	size, err := c.checkData(data)
	if err != nil {
		return nil, err
	}
	// Unified packet table: data packets then parity packets.
	table := make([][]byte, (c.k+c.m)*c.w)
	for i, d := range data {
		packetsInto(table[i*c.w:(i+1)*c.w], d, c.w)
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
		packetsInto(table[(c.k+i)*c.w:(c.k+i+1)*c.w], parity[i], c.w)
	}
	for _, op := range c.sched.ops {
		dst := table[op.Dst]
		if op.Copy {
			if op.Src == op.Dst {
				clear(dst)
				continue
			}
			copy(dst, table[op.Src])
			continue
		}
		gf.AddSlice(dst, table[op.Src])
	}
	return parity, nil
}

// rowRange returns [lo, hi).
func rowRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// selectCols copies columns [lo,hi) of m into a new matrix.
func selectCols(m *bitmatrix.Matrix, lo, hi int) *bitmatrix.Matrix {
	out := bitmatrix.New(m.Rows(), hi-lo)
	for i := 0; i < m.Rows(); i++ {
		for j := lo; j < hi; j++ {
			if m.At(i, j) {
				out.Set(i, j-lo, true)
			}
		}
	}
	return out
}

var (
	_ codes.Code              = (*Code[uint8])(nil)
	_ codes.IntoEncoder       = (*Code[uint16])(nil)
	_ codes.IntoReconstructor = (*Code[uint8])(nil)
	_ codes.WideSymbolCode    = (*Code[uint16])(nil)
)
