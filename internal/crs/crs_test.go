package crs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/matrix"
	"repro/internal/rs"
)

// Every behaviour has one generic body. Most tests run it over both fields
// through forFields; tests with a width-specific twin (TestX for CRS,
// TestX16 for CRS16) run one instance each. Shard sizes are counted in
// packets so both widths see whole packets.

// forFields runs one generic test body over GF(2^8) and GF(2^16).
func forFields(t *testing.T, gf8, gf16 func(*testing.T)) {
	t.Run("GF8", gf8)
	t.Run("GF16", gf16)
}

// newFor constructs the CRS code over the field of S.
func newFor[S matrix.Symbol](k, m int) (*Code[S], error) {
	if _, ok := any(S(0)).(uint8); ok {
		c, err := New(k, m)
		return any(c).(*Code[S]), err
	}
	c, err := New16(k, m)
	return any(c).(*Code[S]), err
}

func mustFor[S matrix.Symbol](k, m int) *Code[S] { return must(newFor[S](k, m)) }

func randShards(rng *rand.Rand, count, size int) [][]byte {
	s := make([][]byte, count)
	for i := range s {
		s[i] = make([]byte, size)
		rng.Read(s[i])
	}
	return s
}

func TestNewValidation(t *testing.T)   { newValidation[uint8](t) }
func TestNew16Validation(t *testing.T) { newValidation[uint16](t) }

func newValidation[S matrix.Symbol](t *testing.T) {
	tooWide := min(matrix.FieldOf[S]().Order(), codes.MaxN)
	for _, p := range [][2]int{{0, 1}, {1, 0}, {tooWide - 3, 4}} {
		if _, err := newFor[S](p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) succeeded", p[0], p[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic")
		}
	}()
	mustFor[S](0, 0)
}

func TestNameAndParams(t *testing.T)   { nameAndParams[uint8](t, "CRS(6,3)", 8) }
func TestName16AndParams(t *testing.T) { nameAndParams[uint16](t, "CRS16(6,3)", 16) }

func nameAndParams[S matrix.Symbol](t *testing.T, name string, packets int) {
	c := mustFor[S](6, 3)
	if c.Name() != name || c.K() != 6 || c.M() != 3 || c.N() != 9 {
		t.Fatalf("params wrong: %s", c.Name())
	}
	if c.FaultTolerance() != 3 {
		t.Fatalf("tolerance = %d", c.FaultTolerance())
	}
	// The packet layout sets the shard-size granularity, not the symbol.
	if c.SymbolBytes() != packets {
		t.Fatalf("SymbolBytes = %d, want %d", c.SymbolBytes(), packets)
	}
	if c.PositionalKernel() {
		t.Fatal("CRS must not claim a positional kernel")
	}
}

func TestMDSProperty(t *testing.T) { forFields(t, mdsProperty[uint8], mdsProperty[uint16]) }

func mdsProperty[S matrix.Symbol](t *testing.T) {
	// Cauchy construction: every pattern up to m erasures decodable.
	for _, p := range [][2]int{{4, 2}, {6, 3}} {
		c := mustFor[S](p[0], p[1])
		if got := c.FaultTolerance(); got != p[1] {
			t.Errorf("%s tolerance = %d", c.Name(), got)
		}
		if bad := c.VerifyFaultTolerance(1<<20, 0, nil); bad != nil {
			t.Errorf("%s: pattern %v unrecoverable", c.Name(), bad)
		}
	}
}

// TestWideCauchyBuildsFast guards construction cost: the Cauchy block is MDS
// by construction, so building CRS(20,8) must not search C(28,8) ≈ 3.1M
// erasure patterns. A sampled audit still checks the declaration.
func TestWideCauchyBuildsFast(t *testing.T) {
	forFields(t, wideCauchyBuildsFast[uint8], wideCauchyBuildsFast[uint16])
}

func wideCauchyBuildsFast[S matrix.Symbol](t *testing.T) {
	start := time.Now()
	c := mustFor[S](20, 8)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("%s took %v to build", c.Name(), d)
	}
	if c.FaultTolerance() != 8 {
		t.Fatalf("%s tolerance = %d, want 8", c.Name(), c.FaultTolerance())
	}
	rng := rand.New(rand.NewSource(22))
	if bad := c.VerifyFaultTolerance(20000, 300, rng.Intn); bad != nil {
		t.Fatalf("%s: pattern %v unrecoverable", c.Name(), bad)
	}
}

func TestEncodeRejectsBadSizes(t *testing.T)   { encodeRejectsBadSizes[uint8](t) }
func TestEncode16RejectsBadSizes(t *testing.T) { encodeRejectsBadSizes[uint16](t) }

func encodeRejectsBadSizes[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](3, 2)
	w := c.w
	if _, err := c.Encode(randShards(rand.New(rand.NewSource(1)), 2, 2*w)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("wrong count: %v", err)
	}
	// Whole field symbols but not a whole number of packets: rejected.
	odd := w + matrix.FieldOf[S]().SymbolBytes()
	if _, err := c.Encode(randShards(rand.New(rand.NewSource(1)), 3, odd)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("non-multiple-of-w size: %v", err)
	}
	if _, err := c.Encode([][]byte{make([]byte, 2*w), nil, make([]byte, 2*w)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("nil shard: %v", err)
	}
	if _, err := c.Encode([][]byte{make([]byte, 2*w), make([]byte, w), make([]byte, 2*w)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("ragged shards: %v", err)
	}
}

func TestEncodeIsPureXOROfPackets(t *testing.T) {
	forFields(t, encodeIsPureXOROfPackets[uint8], encodeIsPureXOROfPackets[uint16])
}

func encodeIsPureXOROfPackets[S matrix.Symbol](t *testing.T) {
	// Hand-check linearity: encoding the XOR of two datasets equals the
	// XOR of their encodings (any XOR-only scheme must satisfy this), and
	// encoding zeros yields zeros.
	c := mustFor[S](4, 2)
	size := 4 * c.w
	rng := rand.New(rand.NewSource(2))
	a := randShards(rng, 4, size)
	b := randShards(rng, 4, size)
	sum := make([][]byte, 4)
	for i := range sum {
		sum[i] = make([]byte, size)
		for t2 := range sum[i] {
			sum[i][t2] = a[i][t2] ^ b[i][t2]
		}
	}
	pa, err := c.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := c.Encode(b)
	ps, _ := c.Encode(sum)
	for i := range ps {
		for t2 := range ps[i] {
			if ps[i][t2] != pa[i][t2]^pb[i][t2] {
				t.Fatalf("not linear at parity %d byte %d", i, t2)
			}
		}
	}
	zero, _ := c.Encode([][]byte{make([]byte, size), make([]byte, size), make([]byte, size), make([]byte, size)})
	for i := range zero {
		for _, v := range zero[i] {
			if v != 0 {
				t.Fatal("encoding zeros gave nonzero parity")
			}
		}
	}
}

func TestBitGeneratorMatchesFieldArithmetic(t *testing.T) { bitGeneratorMatchesField[uint8](t, 17) }
func TestBitGenerator16MatchesFieldArithmetic(t *testing.T) {
	bitGeneratorMatchesField[uint16](t, 4099)
}

// bitGeneratorMatchesField checks that block (i,j) of the expanded
// generator implements multiplication by gen[i][j]: applying the block to
// the bit-decomposition of v gives the bits of gen[i][j]·v, for every
// step-th field element v.
func bitGeneratorMatchesField[S matrix.Symbol](t *testing.T, step int) {
	f := matrix.FieldOf[S]()
	c := mustFor[S](3, 2)
	w := c.w
	g := c.Generator()
	bg := c.BitGenerator()
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			a := g.At(i, j)
			for v := 0; v < f.Order(); v += step {
				want := f.Mul(a, S(v))
				var got S
				for row := 0; row < w; row++ {
					bit := S(0)
					for col := 0; col < w; col++ {
						if bg.At(i*w+row, j*w+col) && v>>uint(col)&1 == 1 {
							bit ^= 1
						}
					}
					got |= bit << uint(row)
				}
				if got != want {
					t.Fatalf("block (%d,%d): %#x·%#x = %#x, want %#x", i, j, a, v, got, want)
				}
			}
		}
	}
}

func TestRoundTripAllPatterns(t *testing.T)   { roundTripAllPatterns[uint8](t) }
func TestRoundTrip16AllPatterns(t *testing.T) { roundTripAllPatterns[uint16](t) }

func roundTripAllPatterns[S matrix.Symbol](t *testing.T) {
	const k, m = 4, 2
	c := mustFor[S](k, m)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, k, 48)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	n := k + m
	for mask := 1; mask < 1<<n; mask++ {
		cnt := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				cnt++
			}
		}
		if cnt > m {
			continue
		}
		shards := make([][]byte, n)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = append([]byte(nil), full[i]...)
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("mask %b shard %d mismatch", mask, i)
			}
		}
	}
}

func TestWideStripe16RoundTrip(t *testing.T) {
	// The reason CRS16 exists: stripes far beyond the GF(2^8) ceiling of
	// 256 elements. Encode at k=64, knock out m random shards, rebuild.
	const k, m = 64, 4
	c := Must16(k, m)
	rng := rand.New(rand.NewSource(9))
	data := randShards(rng, k, 64)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	for trial := 0; trial < 4; trial++ {
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = append([]byte(nil), full[i]...)
		}
		for _, e := range rng.Perm(k + m)[:m] {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("trial %d shard %d mismatch", trial, i)
			}
		}
	}
}

func TestReconstructBeyondTolerance(t *testing.T) {
	forFields(t, reconstructBeyondTolerance[uint8], reconstructBeyondTolerance[uint16])
}

func reconstructBeyondTolerance[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](3, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 3, 2*c.w)
	parity, _ := c.Encode(data)
	shards := [][]byte{nil, nil, nil, parity[0], parity[1]}
	if err := c.Reconstruct(shards); !errors.Is(err, codes.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestReconstructElements(t *testing.T) {
	forFields(t, reconstructElements[uint8], reconstructElements[uint16])
}

func reconstructElements[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](3, 2)
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 3, 3*c.w)
	parity, _ := c.Encode(data)
	shards := [][]byte{data[0], nil, data[2], parity[0], nil}
	if err := c.ReconstructElements(shards, []int{1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], data[1]) {
		t.Fatal("target not rebuilt correctly")
	}
	if err := c.ReconstructElements(shards, []int{9}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("out-of-range target: %v", err)
	}
}

func TestXORCountPositiveAndBounded(t *testing.T) {
	forFields(t, xorCountPositiveAndBounded[uint8], xorCountPositiveAndBounded[uint16])
}

func xorCountPositiveAndBounded[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](6, 3)
	x := c.XORCount()
	if x <= 0 {
		t.Fatal("XOR count must be positive")
	}
	// Upper bound: every parity bit-row can cost at most k·w-1 XORs.
	if x >= c.M()*c.w*c.K()*c.w {
		t.Fatalf("XOR count %d implausibly large", x)
	}
}

func TestCRSWorksAsECFRMCandidate(t *testing.T) { worksAsECFRMCandidate[uint8](t, "EC-FRM-CRS(6,3)") }
func TestCRS16WorksAsECFRMCandidate(t *testing.T) {
	worksAsECFRMCandidate[uint16](t, "EC-FRM-CRS16(6,3)")
}

// worksAsECFRMCandidate checks the point of CRS here: it drops into the
// framework unchanged.
func worksAsECFRMCandidate[S matrix.Symbol](t *testing.T, name string) {
	c := mustFor[S](6, 3)
	scheme, err := core.NewScheme(c, layout.FormECFRM)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Name() != name {
		t.Fatalf("name %q", scheme.Name())
	}
	rng := rand.New(rand.NewSource(6))
	data := randShards(rng, scheme.DataPerStripe(), 32)
	cells, err := scheme.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	// Fail 3 disks, reconstruct, verify.
	n := scheme.N()
	broken := make([][]byte, len(cells))
	for i := range cells {
		if i%n != 0 && i%n != 4 && i%n != 8 {
			broken[i] = cells[i]
		}
	}
	if err := scheme.ReconstructStripe(broken); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !bytes.Equal(broken[i], cells[i]) {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestRecoverySetsValid(t *testing.T)   { recoverySetsValid[uint8](t) }
func TestRecoverySets16Valid(t *testing.T) { recoverySetsValid[uint16](t) }

func recoverySetsValid[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](5, 3)
	for idx := 0; idx < c.N(); idx++ {
		for si, set := range c.RecoverySets(idx) {
			if !c.VerifySet(idx, set) {
				t.Fatalf("element %d set %d invalid: %v", idx, si, set)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out of range did not panic")
		}
	}()
	c.RecoverySets(8)
}

func TestCRS16SameCodeAsRS16(t *testing.T) {
	// CRS16 and RS16 are built from the same Cauchy generator, so the
	// recovered data must agree even though the shard layouts differ:
	// rebuild the same erased data element through both kernels.
	const k, m = 8, 3
	xc := Must16(k, m)
	fc := rs.Must16(k, m)
	if !xc.Generator().Equal(fc.Generator()) {
		t.Fatal("CRS16 and RS16 generators differ")
	}
	rng := rand.New(rand.NewSource(11))
	data := randShards(rng, k, 32)
	px, err := xc.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := fc.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	sx := append(append([][]byte{}, data...), px...)
	sf := append(append([][]byte{}, data...), pf...)
	sx[2], sf[2] = nil, nil
	if err := xc.Reconstruct(sx); err != nil {
		t.Fatal(err)
	}
	if err := fc.Reconstruct(sf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sx[2], data[2]) || !bytes.Equal(sf[2], data[2]) {
		t.Fatal("recovered data element differs from original")
	}
}

func TestScheduledEncodeMatchesDirect(t *testing.T) {
	scheduledEncodeMatchesDirect[uint8](t, [2]int{3, 2}, [2]int{6, 3}, [2]int{8, 4})
}

func TestScheduledEncode16MatchesDirect(t *testing.T) {
	scheduledEncodeMatchesDirect[uint16](t, [2]int{3, 2}, [2]int{8, 4}, [2]int{32, 3})
}

func scheduledEncodeMatchesDirect[S matrix.Symbol](t *testing.T, params ...[2]int) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range params {
		c := mustFor[S](p[0], p[1])
		data := randShards(rng, p[0], 64)
		direct, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := c.EncodeScheduled(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range direct {
			if !bytes.Equal(direct[i], sched[i]) {
				t.Fatalf("%s: scheduled parity %d differs", c.Name(), i)
			}
		}
	}
}

func TestScheduleSavesOperations(t *testing.T) {
	forFields(t, scheduleSavesOperations[uint8], scheduleSavesOperations[uint16])
}

func scheduleSavesOperations[S matrix.Symbol](t *testing.T) {
	// The point of scheduling: fewer XOR passes than the naive bit count.
	for _, p := range [][2]int{{3, 2}, {6, 3}, {8, 4}, {10, 5}, {32, 3}} {
		c := mustFor[S](p[0], p[1])
		if got, naive := c.Schedule().Ops(), c.NaiveXOROps(); got >= naive {
			t.Errorf("%s: schedule %d ops not below naive %d", c.Name(), got, naive)
		}
	}
}

func TestEncodeScheduledValidation(t *testing.T) {
	forFields(t, encodeScheduledValidation[uint8], encodeScheduledValidation[uint16])
}

func encodeScheduledValidation[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](3, 2)
	if _, err := c.EncodeScheduled(make([][]byte, 2)); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("count: %v", err)
	}
	bad := c.w - 1
	if _, err := c.EncodeScheduled([][]byte{make([]byte, bad), make([]byte, bad), make([]byte, bad)}); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("alignment: %v", err)
	}
}

func TestApplyDeltaMatchesReencode(t *testing.T)   { applyDeltaMatchesReencode[uint8](t) }
func TestApplyDelta16MatchesReencode(t *testing.T) { applyDeltaMatchesReencode[uint16](t) }

func applyDeltaMatchesReencode[S matrix.Symbol](t *testing.T) {
	c := mustFor[S](4, 2)
	const size = 48
	rng := rand.New(rand.NewSource(8))
	data := randShards(rng, 4, size)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Update element 2 via the delta path.
	newData := make([]byte, size)
	rng.Read(newData)
	delta := make([]byte, size)
	for i := range delta {
		delta[i] = data[2][i] ^ newData[i]
	}
	if err := c.ApplyDelta(parity, 2, delta); err != nil {
		t.Fatal(err)
	}
	data[2] = newData
	want, _ := c.Encode(data)
	for i := range want {
		if !bytes.Equal(parity[i], want[i]) {
			t.Fatalf("parity %d diverges from re-encode after delta", i)
		}
	}
	// Validation paths.
	if err := c.ApplyDelta(parity[:1], 0, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("short parity: %v", err)
	}
	if err := c.ApplyDelta(parity, 9, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("bad element: %v", err)
	}
	if err := c.ApplyDelta(parity, 0, delta[:size-2]); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("unaligned delta: %v", err)
	}
	if err := c.ApplyDelta([][]byte{make([]byte, size-c.w), make([]byte, size)}, 0, delta); !errors.Is(err, codes.ErrShardSize) {
		t.Fatalf("ragged parity: %v", err)
	}
}

func BenchmarkEncodeCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	parity, _ := c.Encode(data)
	full := append(append([][]byte{}, data...), parity...)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := append([][]byte{}, full...)
		shards[1] = nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeScheduledCRS63(b *testing.B) {
	c := Must(6, 3)
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeScheduled(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCRS16Wide(b *testing.B) {
	c := Must16(64, 4)
	data := make([][]byte, 64)
	for i := range data {
		data[i] = make([]byte, 64<<10)
	}
	b.SetBytes(64 * 64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}
