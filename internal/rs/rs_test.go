package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/matrix"
)

// Every test body is generic over the symbol type and runs over both
// fields through forFields; shard sizes are even so GF(2^16) sees whole
// symbols.

// forFields runs one generic test body over GF(2^8) and GF(2^16).
func forFields(t *testing.T, gf8, gf16 func(*testing.T)) {
	t.Run("GF8", gf8)
	t.Run("GF16", gf16)
}

func TestNewValidation(t *testing.T) { forFields(t, newValidation[uint8], newValidation[uint16]) }

func newValidation[S matrix.Symbol](t *testing.T) {
	tooWide := min(matrix.FieldOf[S]().Order(), 1024)
	for _, p := range [][2]int{{0, 1}, {1, 0}, {-1, 3}, {tooWide - 3, 4}} {
		if _, err := newCode[S](p[0], p[1]); err == nil {
			t.Errorf("New(%d,%d) succeeded, want error", p[0], p[1])
		}
	}
	if _, err := newCode[S](tooWide-4, 4); err != nil {
		t.Fatalf("New(%d,4) at the limit: %v", tooWide-4, err)
	}
	if _, err := newCode[S](6, 3); err != nil {
		t.Fatalf("New(6,3): %v", err)
	}
}

func TestMustPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Must":   func() { Must(0, 0) },
		"Must16": func() { Must16(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(0,0) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNameAndParams(t *testing.T) {
	for name, c := range map[string]interface {
		Name() string
		K() int
		M() int
		N() int
		SymbolBytes() int
	}{"RS(8,4)": Must(8, 4), "RS16(8,4)": Must16(8, 4)} {
		if c.Name() != name {
			t.Fatalf("Name = %q, want %q", c.Name(), name)
		}
		if c.K() != 8 || c.M() != 4 || c.N() != 12 {
			t.Fatalf("%s: params wrong: k=%d m=%d n=%d", name, c.K(), c.M(), c.N())
		}
	}
	if Must(8, 4).SymbolBytes() != 1 || Must16(8, 4).SymbolBytes() != 2 {
		t.Fatal("SymbolBytes must be the field symbol width")
	}
}

func TestMDSPropertyPaperConfigs(t *testing.T) {
	forFields(t, mdsPropertyPaperConfigs[uint8], mdsPropertyPaperConfigs[uint16])
}

func mdsPropertyPaperConfigs[S matrix.Symbol](t *testing.T) {
	// Table I configurations: fault tolerance must equal m (MDS), and an
	// exhaustive audit must confirm the declaration.
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}} {
		c := must(newCode[S](p[0], p[1]))
		if got := c.FaultTolerance(); got != p[1] {
			t.Errorf("%s tolerance = %d, want %d (not MDS)", c.Name(), got, p[1])
		}
		if bad := c.VerifyFaultTolerance(1<<20, 0, nil); bad != nil {
			t.Errorf("%s: pattern %v unrecoverable", c.Name(), bad)
		}
	}
}

// TestWideCauchyBuildsFast guards construction cost: the Cauchy block is MDS
// by construction, so building RS(20,8) must not search C(28,8) ≈ 3.1M
// erasure patterns. A sampled audit still checks the declaration.
func TestWideCauchyBuildsFast(t *testing.T) {
	forFields(t, wideCauchyBuildsFast[uint8], wideCauchyBuildsFast[uint16])
}

func wideCauchyBuildsFast[S matrix.Symbol](t *testing.T) {
	start := time.Now()
	c := must(newCode[S](20, 8))
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	forFields(t, encodeDecodeRoundTrip[uint8], encodeDecodeRoundTrip[uint16])
}

func encodeDecodeRoundTrip[S matrix.Symbol](t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, p := range [][2]int{{6, 3}, {8, 4}, {10, 5}, {3, 1}, {2, 2}, {64, 4}} {
		c := must(newCode[S](p[0], p[1]))
		data := make([][]byte, c.K())
		for i := range data {
			data[i] = make([]byte, 98)
			rng.Read(data[i])
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)
		// Erase m random elements, 50 trials.
		for trial := 0; trial < 50; trial++ {
			shards := make([][]byte, c.N())
			perm := rng.Perm(c.N())
			for i, s := range full {
				shards[i] = append([]byte(nil), s...)
			}
			for _, e := range perm[:c.M()] {
				shards[e] = nil
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("%s trial %d: %v", c.Name(), trial, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], full[i]) {
					t.Fatalf("%s trial %d shard %d mismatch", c.Name(), trial, i)
				}
			}
		}
	}
}

func TestRecoverySetsValid(t *testing.T) {
	forFields(t, recoverySetsValid[uint8], recoverySetsValid[uint16])
}

func recoverySetsValid[S matrix.Symbol](t *testing.T) {
	c := must(newCode[S](6, 3))
	for idx := 0; idx < c.N(); idx++ {
		sets := c.RecoverySets(idx)
		wantSets := c.N() - c.K() + 1 // data-heavy sets for parity + windows
		if idx < c.K() {
			wantSets = 2 * (c.N() - c.K()) // one per parity + windows
		}
		if len(sets) != wantSets {
			t.Fatalf("element %d: %d sets, want %d", idx, len(sets), wantSets)
		}
		for si, set := range sets {
			if len(set) != c.K() {
				t.Fatalf("element %d set %d has %d reads, want k=%d", idx, si, len(set), c.K())
			}
			seen := map[int]bool{idx: true}
			for _, e := range set {
				if seen[e] {
					t.Fatalf("element %d set %d repeats or includes target: %v", idx, si, set)
				}
				seen[e] = true
			}
			if !c.VerifySet(idx, set) {
				t.Fatalf("element %d set %d does not rebuild target: %v", idx, si, set)
			}
		}
	}
}

func TestRecoverySetsOutOfRangePanics(t *testing.T) {
	forFields(t, recoverySetsOutOfRangePanics[uint8], recoverySetsOutOfRangePanics[uint16])
}

func recoverySetsOutOfRangePanics[S matrix.Symbol](t *testing.T) {
	c := must(newCode[S](4, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range did not panic")
		}
	}()
	c.RecoverySets(6)
}

func TestPropertyAnyKSubsetDecodes(t *testing.T) {
	forFields(t, propertyAnyKSubsetDecodes[uint8], propertyAnyKSubsetDecodes[uint16])
}

func propertyAnyKSubsetDecodes[S matrix.Symbol](t *testing.T) {
	// MDS: any k available elements determine all data. Sample random
	// k-subsets and reconstruct everything else.
	c := must(newCode[S](5, 4))
	rng := rand.New(rand.NewSource(21))
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 16)
		rng.Read(data[i])
	}
	parity, _ := c.Encode(data)
	full := append(append([][]byte{}, data...), parity...)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(c.N())
		shards := make([][]byte, c.N())
		for _, keep := range perm[:c.K()] {
			shards[keep] = append([]byte(nil), full[keep]...)
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStorageOverhead(t *testing.T) {
	// Storage overhead is n/k; sanity-check the Google config (6,3) = 1.5×
	// and a wide stripe (64,4) = 1.0625×.
	if got := float64(Must(6, 3).N()) / float64(Must(6, 3).K()); got != 1.5 {
		t.Fatalf("overhead = %v, want 1.5", got)
	}
	if got := float64(Must16(64, 4).N()) / float64(Must16(64, 4).K()); got != 1.0625 {
		t.Fatalf("wide overhead = %v, want 1.0625", got)
	}
}

func BenchmarkEncodeRS63(b *testing.B) {
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

func BenchmarkReconstructRS63(b *testing.B) {
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
		shards[2] = nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
