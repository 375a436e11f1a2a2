package codes

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// Every test body is generic over the symbol type and runs over both
// fields; shard sizes scale with the symbol width so both see whole symbols.

// forFields runs one generic test body over GF(2^8) and GF(2^16).
func forFields(t *testing.T, gf8, gf16 func(*testing.T)) {
	t.Run("GF8", gf8)
	t.Run("GF16", gf16)
}

// testCode builds a small MDS base: identity(k) stacked on Cauchy(m,k).
func testCode[S matrix.Symbol](k, m int) *Base[S] {
	return NewBase(matrix.Identity[S](k).Stack(matrix.Cauchy[S](m, k)), m)
}

// symBytes is the symbol width of the field of S.
func symBytes[S matrix.Symbol]() int { return matrix.FieldOf[S]().SymbolBytes() }

func randShards(rng *rand.Rand, count, size int) [][]byte {
	s := make([][]byte, count)
	for i := range s {
		s[i] = make([]byte, size)
		rng.Read(s[i])
	}
	return s
}

func TestNewBaseValidation(t *testing.T) {
	forFields(t, newBaseValidation[uint8], newBaseValidation[uint16])
}

func newBaseValidation[S matrix.Symbol](t *testing.T) {
	for name, fn := range map[string]func(){
		"nonsystematic": func() { NewBase(matrix.Cauchy[S](4, 2), 0) },
		"tooFewRows":    func() { NewBase(matrix.New[S](1, 2), 0) },
		"zeroCols":      func() { NewBase(matrix.New[S](3, 0), 0) },
		"tooWide":       func() { NewBase(matrix.Identity[S](MaxN+1), 0) },
		"ftAboveNK":     func() { NewBase(matrix.Identity[S](2).Stack(matrix.Cauchy[S](1, 2)), 2) },
		"ftNegative":    func() { NewBase(matrix.Identity[S](2).Stack(matrix.Cauchy[S](1, 2)), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBase(%s) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEncodeShapes(t *testing.T) { forFields(t, encodeShapes[uint8], encodeShapes[uint16]) }

func encodeShapes[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	rng := rand.New(rand.NewSource(1))
	parity, err := b.Encode(randShards(rng, 3, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 || len(parity[0]) != 64 || len(parity[1]) != 64 {
		t.Fatalf("parity shapes wrong: %d shards", len(parity))
	}
}

func TestEncodeErrors(t *testing.T) { forFields(t, encodeErrors[uint8], encodeErrors[uint16]) }

func encodeErrors[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	if _, err := b.Encode(make([][]byte, 2)); !errors.Is(err, ErrShardSize) {
		t.Fatalf("wrong shard count: err = %v", err)
	}
	if _, err := b.Encode([][]byte{{1}, nil, {3}}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("nil shard: err = %v", err)
	}
	if _, err := b.Encode([][]byte{{1, 2}, {3}, {4, 5}}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged shards: err = %v", err)
	}
	if symBytes[S]() == 1 {
		return
	}
	// Wide symbols: a size that splits a symbol is rejected everywhere.
	odd := [][]byte{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if _, err := b.Encode(odd); !errors.Is(err, ErrShardSize) {
		t.Fatalf("Encode of partial symbols: err = %v", err)
	}
	if err := b.EncodeInto([][]byte{make([]byte, 3), make([]byte, 3)}, odd); !errors.Is(err, ErrShardSize) {
		t.Fatalf("EncodeInto of partial symbols: err = %v", err)
	}
	if err := b.Reconstruct([][]byte{nil, odd[1], odd[2], odd[0], odd[0]}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("Reconstruct of partial symbols: err = %v", err)
	}
	if err := b.ApplyDelta([][]byte{make([]byte, 3), make([]byte, 3)}, 0, make([]byte, 3)); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ApplyDelta of partial symbols: err = %v", err)
	}
}

func TestReconstructAllPatterns(t *testing.T) {
	forFields(t, reconstructAllPatterns[uint8], reconstructAllPatterns[uint16])
}

func reconstructAllPatterns[S matrix.Symbol](t *testing.T) {
	const k, m = 4, 3
	b := testCode[S](k, m)
	if b.FaultTolerance() != m {
		t.Fatalf("MDS base tolerance = %d, want %d", b.FaultTolerance(), m)
	}
	rng := rand.New(rand.NewSource(2))
	data := randShards(rng, k, 37*symBytes[S]())
	parity, err := b.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)

	n := k + m
	// Erase every subset of size ≤ m and reconstruct.
	for mask := 0; mask < 1<<n; mask++ {
		cnt := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				cnt++
			}
		}
		if cnt == 0 || cnt > m {
			continue
		}
		shards := make([][]byte, n)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = append([]byte(nil), full[i]...)
			}
		}
		if err := b.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	forFields(t, reconstructTooManyErasures[uint8], reconstructTooManyErasures[uint16])
}

func reconstructTooManyErasures[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 3, 8*symBytes[S]())
	parity, _ := b.Encode(data)
	shards := [][]byte{nil, nil, nil, parity[0], parity[1]}
	if err := b.Reconstruct(shards); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestReconstructNoErasures(t *testing.T) {
	forFields(t, reconstructNoErasures[uint8], reconstructNoErasures[uint16])
}

func reconstructNoErasures[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 3, 8*symBytes[S]())
	parity, _ := b.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	if err := b.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructErrors(t *testing.T) {
	forFields(t, reconstructErrors[uint8], reconstructErrors[uint16])
}

func reconstructErrors[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	if err := b.Reconstruct(make([][]byte, 3)); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short slice: err = %v", err)
	}
	if err := b.Reconstruct(make([][]byte, 5)); !errors.Is(err, ErrShardSize) {
		t.Fatalf("all nil: err = %v", err)
	}
	ragged := [][]byte{{1, 2}, {3}, nil, {4, 5}, {6, 7}}
	if err := b.Reconstruct(ragged); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: err = %v", err)
	}
}

func TestCanRecover(t *testing.T) { forFields(t, canRecover[uint8], canRecover[uint16]) }

func canRecover[S matrix.Symbol](t *testing.T) {
	b := testCode[S](4, 2)
	if !b.CanRecover(nil) {
		t.Fatal("empty erasure must be recoverable")
	}
	if !b.CanRecover([]int{0, 5}) {
		t.Fatal("2 erasures of MDS(4,2) must be recoverable")
	}
	if b.CanRecover([]int{0, 1, 2}) {
		t.Fatal("3 erasures of MDS(4,2) must NOT be recoverable")
	}
	if b.CanRecover([]int{-1}) || b.CanRecover([]int{6}) {
		t.Fatal("out-of-range indices must report unrecoverable")
	}
}

func TestVerifySet(t *testing.T) { forFields(t, verifySet[uint8], verifySet[uint16]) }

func verifySet[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	if !b.VerifySet(0, []int{1, 2, 3}) {
		t.Fatal("3 survivors must rebuild one element of MDS(3,2)")
	}
	if b.VerifySet(0, []int{1, 2}) {
		t.Fatal("2 survivors cannot rebuild data of MDS(3,2)")
	}
}

func TestFaultToleranceNonMDS(t *testing.T) {
	forFields(t, faultToleranceNonMDS[uint8], faultToleranceNonMDS[uint16])
}

func faultToleranceNonMDS[S matrix.Symbol](t *testing.T) {
	// A deliberately weak code: the second parity duplicates the first, so
	// it tolerates one erasure, not the two its shape suggests. Declaring 2
	// must fail the audit on the pattern {d0, d1}; declaring 1 must pass.
	gen := matrix.Identity[S](2).Stack(matrix.FromRows([][]S{{1, 1}, {1, 1}}))
	never := func(int) int { panic("exhaustive audit must not sample") }
	if bad := NewBase(gen, 2).VerifyFaultTolerance(100, 0, never); len(bad) != 2 || bad[0] != 0 || bad[1] != 1 {
		t.Fatalf("declared tolerance 2: audit failing pattern = %v, want [0 1]", bad)
	}
	b := NewBase(gen, 1)
	if bad := b.VerifyFaultTolerance(100, 0, never); bad != nil {
		t.Fatalf("declared tolerance 1: audit failed on %v", bad)
	}
	// A sampled audit finds the weakness too: every 2-pattern is drawn
	// eventually, and {d0, d1} is one of six.
	rng := rand.New(rand.NewSource(1))
	if bad := NewBase(gen, 2).VerifyFaultTolerance(0, 200, rng.Intn); bad == nil {
		t.Fatal("sampled audit missed the unrecoverable pattern")
	}
	// {d0, d1} unrecoverable: p0 = p1 = d0+d1 gives one equation.
	if b.CanRecover([]int{0, 1}) {
		t.Fatal("two data erasures must be unrecoverable with duplicate parity")
	}
	// {d0, p0} is fine.
	if !b.CanRecover([]int{0, 2}) {
		t.Fatal("{d0,p0} must be recoverable")
	}
}

func TestReconstructedParityConsistent(t *testing.T) {
	forFields(t, reconstructedParityConsistent[uint8], reconstructedParityConsistent[uint16])
}

func reconstructedParityConsistent[S matrix.Symbol](t *testing.T) {
	// Reconstructing a parity shard must yield exactly what Encode yields.
	b := testCode[S](3, 3)
	rng := rand.New(rand.NewSource(5))
	data := randShards(rng, 3, 50*symBytes[S]())
	parity, _ := b.Encode(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[4] = nil
	if err := b.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[4], parity[1]) {
		t.Fatal("reconstructed parity differs from encoded parity")
	}
}

func TestReconstructElementsPartialPattern(t *testing.T) {
	forFields(t, reconstructElementsPartialPattern[uint8], reconstructElementsPartialPattern[uint16])
}

func reconstructElementsPartialPattern[S matrix.Symbol](t *testing.T) {
	// The motivating case: more shards are erased than we need to rebuild,
	// and the full pattern is NOT jointly recoverable — but the single
	// target is. LRC-style: gen row 2 = d0+d1 (local parity of {0,1}),
	// row 5 = d2+d3. Erase d0, d2, d3: {d2,d3} unrecoverable (only one
	// parity covers them... erase its parity too).
	gen := matrix.Identity[S](4).Stack(matrix.FromRows([][]S{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	}))
	b := NewBase(gen, 1)
	rng := rand.New(rand.NewSource(60))
	data := randShards(rng, 4, 10*symBytes[S]())
	parity, err := b.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{nil, data[1], nil, nil, parity[0], nil}
	// Full reconstruct must fail: d2,d3 have no surviving equation.
	if err := b.Reconstruct(append([][]byte{}, shards...)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("full reconstruct err = %v, want ErrUnrecoverable", err)
	}
	// Targeted reconstruct of d0 alone succeeds via d1 + p0.
	work := append([][]byte{}, shards...)
	if err := b.ReconstructElements(work, []int{0}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(work[0], data[0]) {
		t.Fatal("target d0 rebuilt wrong")
	}
	// Non-target erased shards stay nil.
	if work[2] != nil || work[3] != nil {
		t.Fatal("non-targets were touched")
	}
	// Asking for the impossible target fails.
	if err := b.ReconstructElements(append([][]byte{}, shards...), []int{2}); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("impossible target err = %v", err)
	}
}

func TestReconstructElementsValidation(t *testing.T) {
	forFields(t, reconstructElementsValidation[uint8], reconstructElementsValidation[uint16])
}

func reconstructElementsValidation[S matrix.Symbol](t *testing.T) {
	b := testCode[S](3, 2)
	if err := b.ReconstructElements(make([][]byte, 2), []int{0}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("short shards: %v", err)
	}
	if err := b.ReconstructElements(make([][]byte, 5), []int{7}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("bad target: %v", err)
	}
	if err := b.ReconstructElements(make([][]byte, 5), []int{0}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("all nil: %v", err)
	}
	// Present targets are a no-op.
	shards := [][]byte{{1}, {2}, {3}, nil, nil}
	if err := b.ReconstructElements(shards, []int{0}); err != nil {
		t.Fatal(err)
	}
	ragged := [][]byte{{1, 2}, {3}, nil, nil, nil}
	if err := b.ReconstructElements(ragged, []int{2}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestDecodeCacheCorrectAndConcurrent(t *testing.T) {
	forFields(t, decodeCacheCorrectAndConcurrent[uint8], decodeCacheCorrectAndConcurrent[uint16])
}

func decodeCacheCorrectAndConcurrent[S matrix.Symbol](t *testing.T) {
	b := testCode[S](4, 3)
	rng := rand.New(rand.NewSource(70))
	data := randShards(rng, 4, 40*symBytes[S]())
	parity, _ := b.Encode(data)
	full := append(append([][]byte{}, data...), parity...)
	// Hammer the same erasure pattern from many goroutines (run under
	// -race); results must stay byte-correct.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := 0; trial < 50; trial++ {
				shards := append([][]byte{}, full...)
				shards[1], shards[5] = nil, nil
				if err := b.Reconstruct(shards); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(shards[1], full[1]) || !bytes.Equal(shards[5], full[5]) {
					errs <- errors.New("cached decode produced wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Different patterns must not collide in the cache.
	shards := append([][]byte{}, full...)
	shards[0], shards[6] = nil, nil
	if err := b.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0], full[0]) || !bytes.Equal(shards[6], full[6]) {
		t.Fatal("second pattern wrong after first was cached")
	}
}
