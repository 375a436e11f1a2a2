package matrix

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Every behaviour has one generic body. Tests that run it over both fields
// use forFields; the few with a width-specific twin (TestX for GF(2^8),
// TestMatrix16X or TestX16 for GF(2^16)) run one instance each.

// forFields runs one generic test body over GF(2^8) and GF(2^16).
func forFields(t *testing.T, gf8, gf16 func(*testing.T)) {
	t.Run("GF8", gf8)
	t.Run("GF16", gf16)
}

func randMatrix[S Symbol](rng *rand.Rand, rows, cols int) *Matrix[S] {
	m := New[S](rows, cols)
	for i := range m.data {
		m.data[i] = S(rng.Intn(m.f.Order()))
	}
	return m
}

// pack lays symbols out little-endian, the shard format MulVec reads.
func pack[S Symbol](sym []S) []byte {
	sb := FieldOf[S]().SymbolBytes()
	out := make([]byte, len(sym)*sb)
	for i, v := range sym {
		for b := 0; b < sb; b++ {
			out[i*sb+b] = byte(uint16(v) >> (8 * b))
		}
	}
	return out
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestNewAndAccessors(t *testing.T) { forFields(t, newAndAccessors[uint8], newAndAccessors[uint16]) }

func newAndAccessors[S Symbol](t *testing.T) {
	m := New[S](2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %d×%d, want 2×3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 0xab)
	if m.At(1, 2) != 0xab {
		t.Fatal("Set/At round trip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("new matrix must be zero")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	forFields(t, outOfRangePanics[uint8], outOfRangePanics[uint16])
}

func outOfRangePanics[S Symbol](t *testing.T) {
	m := New[S](2, 2)
	for name, fn := range map[string]func(){
		"At":        func() { m.At(2, 0) },
		"AtNeg":     func() { m.At(0, -1) },
		"Set":       func() { m.Set(0, 2, 1) },
		"Row":       func() { m.Row(5) },
		"SubMatrix": func() { m.SubMatrix(0, 3, 0, 1) },
		"NewNeg":    func() { New[S](-1, 2) },
	} {
		mustPanic(t, name, fn)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	forFields(t, fromRowsRaggedPanics[uint8], fromRowsRaggedPanics[uint16])
}

func fromRowsRaggedPanics[S Symbol](t *testing.T) {
	mustPanic(t, "ragged FromRows", func() { FromRows([][]S{{1, 2}, {3}}) })
}

func TestFromRowsEmpty(t *testing.T) { forFields(t, fromRowsEmpty[uint8], fromRowsEmpty[uint16]) }

func fromRowsEmpty[S Symbol](t *testing.T) {
	m := FromRows[S](nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatal("empty FromRows must give 0×0")
	}
}

func TestIdentity(t *testing.T) { forFields(t, identity[uint8], identity[uint16]) }

func identity[S Symbol](t *testing.T) {
	id := Identity[S](4)
	if !id.IsIdentity() {
		t.Fatal("Identity(4) is not identity")
	}
	m := FromRows([][]S{{1, 2}, {3, 4}})
	if m.IsIdentity() {
		t.Fatal("non-identity reported as identity")
	}
	if New[S](2, 3).IsIdentity() {
		t.Fatal("non-square reported as identity")
	}
}

func TestMulIdentity(t *testing.T) { forFields(t, mulIdentity[uint8], mulIdentity[uint16]) }

func mulIdentity[S Symbol](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix[S](rng, 5, 5)
	if !m.Mul(Identity[S](5)).Equal(m) || !Identity[S](5).Mul(m).Equal(m) {
		t.Fatal("identity is not multiplicative identity")
	}
}

func TestMulKnown(t *testing.T) { forFields(t, mulKnown[uint8], mulKnown[uint16]) }

func mulKnown[S Symbol](t *testing.T) {
	f := FieldOf[S]()
	a := FromRows([][]S{{1, 2}, {3, 4}})
	b := FromRows([][]S{{5, 6}, {7, 8}})
	p := a.Mul(b)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := f.Mul(a.At(i, 0), b.At(0, j)) ^ f.Mul(a.At(i, 1), b.At(1, j))
			if p.At(i, j) != want {
				t.Fatalf("p[%d][%d] = %#x, want %#x", i, j, p.At(i, j), want)
			}
		}
	}
}

func TestMulDimMismatchPanics(t *testing.T) {
	forFields(t, mulDimMismatchPanics[uint8], mulDimMismatchPanics[uint16])
}

func mulDimMismatchPanics[S Symbol](t *testing.T) {
	mustPanic(t, "dimension mismatch", func() { New[S](2, 3).Mul(New[S](2, 2)) })
}

func TestMulAssociative(t *testing.T) { forFields(t, mulAssociative[uint8], mulAssociative[uint16]) }

func mulAssociative[S Symbol](t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix[S](rng, 4, 5)
		b := randMatrix[S](rng, 5, 3)
		c := randMatrix[S](rng, 3, 6)
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatal("matrix multiply not associative")
		}
	}
}

func TestInvertRoundTrip(t *testing.T)         { invertRoundTrip[uint8](t, 1, 2, 5, 6, 17) }
func TestMatrix16InvertRoundTrip(t *testing.T) { invertRoundTrip[uint16](t, 1, 2, 5, 17, 64) }

func invertRoundTrip[S Symbol](t *testing.T, sizes ...int) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range sizes {
		found := 0
		for trial := 0; trial < 100 && found < 5; trial++ {
			m := randMatrix[S](rng, n, n)
			inv, err := m.Invert()
			if err != nil {
				continue // singular random matrix, rare but possible
			}
			found++
			if !m.Mul(inv).IsIdentity() || !inv.Mul(m).IsIdentity() {
				t.Fatalf("M·M⁻¹ != I for\n%v", m)
			}
		}
		if found == 0 {
			t.Fatalf("n=%d: no invertible random matrices found (suspicious)", n)
		}
	}
}

func TestInvertSingular(t *testing.T) { forFields(t, invertSingular[uint8], invertSingular[uint16]) }

func invertSingular[S Symbol](t *testing.T) {
	m := FromRows([][]S{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}) // row1 = 2·row0
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := New[S](3, 3).Invert(); err != ErrSingular {
		t.Fatalf("zero matrix inverted: %v", err)
	}
	if _, err := New[S](2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square must fail")
	}
}

func TestRank(t *testing.T) { forFields(t, rank[uint8], rank[uint16]) }

func rank[S Symbol](t *testing.T) {
	if got := Identity[S](5).Rank(); got != 5 {
		t.Fatalf("rank(I5) = %d, want 5", got)
	}
	if got := New[S](3, 4).Rank(); got != 0 {
		t.Fatalf("rank(0) = %d, want 0", got)
	}
	m := FromRows([][]S{{1, 2, 3}, {2, 4, 6}, {1, 0, 0}})
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
	// Rank is preserved under invertible row ops: multiply by identity.
	if m.Mul(Identity[S](3)).Rank() != 2 {
		t.Fatal("rank changed under identity multiply")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	forFields(t, vandermondeSubmatricesInvertible[uint8], vandermondeSubmatricesInvertible[uint16])
}

func vandermondeSubmatricesInvertible[S Symbol](t *testing.T) {
	// V[i][j] = i^j.
	if got, want := Vandermonde[S](4, 3).At(3, 2), FieldOf[S]().Mul(3, 3); got != want {
		t.Fatalf("V[3][2] = %#x, want %#x", got, want)
	}
	// For a k-column Vandermonde with distinct points, any k rows form an
	// invertible matrix.
	const k, rows = 4, 9
	v := Vandermonde[S](rows, k)
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sub := v.SelectRows(idx)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("Vandermonde rows %v singular", idx)
			}
			return
		}
		for i := start; i < rows; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestVandermondeTooLargePanics(t *testing.T) {
	forFields(t, vandermondeTooLargePanics[uint8], vandermondeTooLargePanics[uint16])
}

func vandermondeTooLargePanics[S Symbol](t *testing.T) {
	mustPanic(t, "oversized Vandermonde", func() { Vandermonde[S](FieldOf[S]().Order()+1, 3) })
}

func TestCauchyAllSquareSubmatricesInvertible(t *testing.T) {
	forFields(t, func(t *testing.T) { cauchySubmatricesInvertible[uint8](t, 5, 5) },
		func(t *testing.T) { cauchySubmatricesInvertible[uint16](t, 5, 5) })
}

// TestCauchy16MDS checks the property wide-stripe codes rest on at
// dimensions GF(2^8) cannot even express: 528 distinct field points.
func TestCauchy16MDS(t *testing.T) { cauchySubmatricesInvertible[uint16](t, 16, 512) }

// cauchySubmatricesInvertible checks that square submatrices of a Cauchy
// matrix are invertible: every one when the matrix is small, a random sample
// otherwise.
func cauchySubmatricesInvertible[S Symbol](t *testing.T, rows, cols int) {
	c := Cauchy[S](rows, cols)
	check := func(ri, ci []int) {
		sub := New[S](len(ri), len(ci))
		for i, r := range ri {
			for j, cc := range ci {
				sub.Set(i, j, c.At(r, cc))
			}
		}
		if sub.Rank() != len(ri) {
			t.Fatalf("Cauchy submatrix rows %v cols %v singular", ri, ci)
		}
	}
	if rows*cols <= 25 {
		for rm := 1; rm < 1<<rows; rm++ {
			for cm := 1; cm < 1<<cols; cm++ {
				ri, ci := bitsOf(rm), bitsOf(cm)
				if len(ri) == len(ci) {
					check(ri, ci)
				}
			}
		}
		return
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(min(rows, cols))
		check(rng.Perm(rows)[:n], rng.Perm(cols)[:n])
	}
}

func bitsOf(mask int) []int {
	var out []int
	for i := 0; mask>>i != 0; i++ {
		if mask>>i&1 == 1 {
			out = append(out, i)
		}
	}
	return out
}

func TestCauchyTooLargePanics(t *testing.T) {
	forFields(t, cauchyTooLargePanics[uint8], cauchyTooLargePanics[uint16])
}

func cauchyTooLargePanics[S Symbol](t *testing.T) {
	half := FieldOf[S]().Order() / 2
	mustPanic(t, "oversized Cauchy", func() { Cauchy[S](half+1, half) })
}

func TestAugmentStack(t *testing.T) { forFields(t, augmentStack[uint8], augmentStack[uint16]) }

func augmentStack[S Symbol](t *testing.T) {
	a := FromRows([][]S{{1, 2}, {3, 4}})
	b := FromRows([][]S{{5}, {6}})
	aug := a.Augment(b)
	if aug.Rows() != 2 || aug.Cols() != 3 || aug.At(0, 2) != 5 || aug.At(1, 2) != 6 {
		t.Fatalf("Augment wrong: %v", aug)
	}
	c := FromRows([][]S{{7, 8}})
	st := a.Stack(c)
	if st.Rows() != 3 || st.At(2, 0) != 7 {
		t.Fatalf("Stack wrong: %v", st)
	}
}

func TestSubMatrixSelectRows(t *testing.T) {
	forFields(t, subMatrixSelectRows[uint8], subMatrixSelectRows[uint16])
}

func subMatrixSelectRows[S Symbol](t *testing.T) {
	m := FromRows([][]S{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.SubMatrix(1, 3, 0, 2)
	want := FromRows([][]S{{4, 5}, {7, 8}})
	if !s.Equal(want) {
		t.Fatalf("SubMatrix = %v, want %v", s, want)
	}
	sel := m.SelectRows([]int{2, 0, 2})
	if sel.At(0, 0) != 7 || sel.At(1, 0) != 1 || sel.At(2, 2) != 9 {
		t.Fatalf("SelectRows wrong: %v", sel)
	}
}

// TestMatrix16Shape checks that symbols wider than a byte survive every
// shape operation intact.
func TestMatrix16Shape(t *testing.T) {
	m := FromRows([][]uint16{{0x1001, 2, 3}, {4, 5, 0xfff6}})
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 2) != 0xfff6 {
		t.Fatal("FromRows broken")
	}
	a := m.Augment(FromRows([][]uint16{{0x7007}, {8}}))
	if a.Cols() != 4 || a.At(0, 3) != 0x7007 || a.At(0, 0) != 0x1001 {
		t.Fatal("Augment broken")
	}
	s := m.Stack(FromRows([][]uint16{{0x9009, 10, 0xb00b}}))
	if s.Rows() != 3 || s.At(2, 0) != 0x9009 {
		t.Fatal("Stack broken")
	}
	if sub := s.SubMatrix(1, 3, 1, 3); sub.Rows() != 2 || sub.At(1, 1) != 0xb00b {
		t.Fatal("SubMatrix broken")
	}
	if sel := s.SelectRows([]int{2, 0}); sel.At(0, 0) != 0x9009 || sel.At(1, 0) != 0x1001 {
		t.Fatal("SelectRows broken")
	}
	if !strings.Contains(m.String(), "1001 0002 0003") {
		t.Fatalf("String does not render 16-bit symbols:\n%s", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	forFields(t, cloneIndependence[uint8], cloneIndependence[uint16])
}

func cloneIndependence[S Symbol](t *testing.T) {
	m := FromRows([][]S{{1, 2}})
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatal("Clone differs from original")
	}
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMulVec(t *testing.T)                      { mulVecMatchesScalar[uint8](t) }
func TestMatrix16MulVecMatchesScalar(t *testing.T) { mulVecMatchesScalar[uint16](t) }

// mulVecMatchesScalar checks MulVec on packed shards against the scalar
// definition out[i][s] = Σ_j m[i][j]·shard_j[s].
func mulVecMatchesScalar[S Symbol](t *testing.T) {
	f := FieldOf[S]()
	rng := rand.New(rand.NewSource(3))
	const k, rows, symbols = 7, 4, 33
	m := randMatrix[S](rng, rows, k)
	shards := make([][]byte, k)
	sym := make([][]S, k)
	for j := range shards {
		sym[j] = make([]S, symbols)
		for s := range sym[j] {
			sym[j][s] = S(rng.Intn(f.Order()))
		}
		shards[j] = pack(sym[j])
	}
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, symbols*f.SymbolBytes())
	}
	m.MulVec(out, shards)
	for i := 0; i < rows; i++ {
		want := make([]S, symbols)
		for j := 0; j < k; j++ {
			for s := 0; s < symbols; s++ {
				want[s] ^= f.Mul(m.At(i, j), sym[j][s])
			}
		}
		if string(out[i]) != string(pack(want)) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestMulVecArityPanics(t *testing.T) {
	forFields(t, mulVecArityPanics[uint8], mulVecArityPanics[uint16])
}

func mulVecArityPanics[S Symbol](t *testing.T) {
	g := Identity[S](2)
	mustPanic(t, "MulVec with wrong shard count", func() {
		g.MulVec([][]byte{make([]byte, 2)}, [][]byte{make([]byte, 2)})
	})
}

func TestSpanSolveRecoversErasedRows(t *testing.T) { spanSolveRecoversErasedRows[uint8](t, 3, 2) }
func TestSpanSolve16(t *testing.T)                 { spanSolveRecoversErasedRows[uint16](t, 64, 4) }

// spanSolveRecoversErasedRows erases m rows of a systematic (k,m) MDS
// generator and checks the solved coefficients rebuild them — as generator
// rows and as encoded data — while k-1 survivors must be reported short.
func spanSolveRecoversErasedRows[S Symbol](t *testing.T, k, m int) {
	rng := rand.New(rand.NewSource(10))
	g := Identity[S](k).Stack(Cauchy[S](m, k))
	enc := g.Mul(randMatrix[S](rng, k, 8)) // all k+m encoded shards
	lost := rng.Perm(k + m)[:m]
	erased := map[int]bool{}
	for _, l := range lost {
		erased[l] = true
	}
	var avail []int
	for i := 0; i < k+m; i++ {
		if !erased[i] {
			avail = append(avail, i)
		}
	}
	coeff, err := SpanSolve(g.SelectRows(avail), g.SelectRows(lost))
	if err != nil {
		t.Fatalf("SpanSolve: %v", err)
	}
	if !coeff.Mul(g.SelectRows(avail)).Equal(g.SelectRows(lost)) {
		t.Fatal("SpanSolve coefficients do not reproduce target rows")
	}
	if !coeff.Mul(enc.SelectRows(avail)).Equal(enc.SelectRows(lost)) {
		t.Fatal("SpanSolve coefficients do not reconstruct erased shards")
	}
	// An unreachable target must be reported, not silently mis-solved.
	if _, err := SpanSolve(g.SelectRows(avail[:k-1]), g.SelectRows(lost)); err != ErrUnsolvable {
		t.Fatalf("k-1 survivors: err = %v, want ErrUnsolvable", err)
	}
}

func TestSpanSolveUnsolvable(t *testing.T) {
	forFields(t, spanSolveUnsolvable[uint8], spanSolveUnsolvable[uint16])
}

func spanSolveUnsolvable[S Symbol](t *testing.T) {
	avail := FromRows([][]S{{1, 0, 0}, {0, 1, 0}})
	target := FromRows([][]S{{0, 0, 1}})
	if _, err := SpanSolve(avail, target); err != ErrUnsolvable {
		t.Fatalf("err = %v, want ErrUnsolvable", err)
	}
}

func TestSpanSolveWidthMismatch(t *testing.T) {
	forFields(t, spanSolveWidthMismatch[uint8], spanSolveWidthMismatch[uint16])
}

func spanSolveWidthMismatch[S Symbol](t *testing.T) {
	if _, err := SpanSolve(New[S](1, 2), New[S](1, 3)); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestSpanSolveTrivial(t *testing.T) {
	forFields(t, spanSolveTrivial[uint8], spanSolveTrivial[uint16])
}

func spanSolveTrivial[S Symbol](t *testing.T) {
	// Target equal to an available row: coefficient must be a unit vector.
	avail := FromRows([][]S{{3, 1, 4}, {1, 5, 9}})
	coeff, err := SpanSolve(avail, FromRows([][]S{{1, 5, 9}}))
	if err != nil {
		t.Fatal(err)
	}
	if coeff.At(0, 0) != 0 || coeff.At(0, 1) != 1 {
		t.Fatalf("coeff = %v, want [0 1]", coeff)
	}
}

func TestSpanSolveDependentAvailable(t *testing.T) {
	forFields(t, spanSolveDependentAvailable[uint8], spanSolveDependentAvailable[uint16])
}

func spanSolveDependentAvailable[S Symbol](t *testing.T) {
	// Available rows contain a duplicate; solving must still work.
	avail := FromRows([][]S{{1, 2, 3}, {1, 2, 3}, {0, 1, 1}})
	target := FromRows([][]S{{1, 3, 2}}) // row0 + row2
	coeff, err := SpanSolve(avail, target)
	if err != nil {
		t.Fatal(err)
	}
	if !coeff.Mul(avail).Equal(target) {
		t.Fatal("combination does not reproduce target")
	}
}

func TestPropertyInverseOfProduct(t *testing.T) {
	forFields(t, propertyInverseOfProduct[uint8], propertyInverseOfProduct[uint16])
}

func propertyInverseOfProduct[S Symbol](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a := randMatrix[S](rng, 4, 4)
		b := randMatrix[S](rng, 4, 4)
		ia, err1 := a.Invert()
		ib, err2 := b.Invert()
		if err1 != nil || err2 != nil {
			return true // skip singulars
		}
		iab, err := a.Mul(b).Invert()
		if err != nil {
			return false
		}
		return iab.Equal(ib.Mul(ia))
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringRenders(t *testing.T) {
	if s := FromRows([][]uint8{{0xab, 1}}).String(); s != "1×2\nab 01\n" {
		t.Fatalf("String = %q", s)
	}
	if s := FromRows([][]uint16{{0xab, 1}}).String(); s != "1×2\n00ab 0001\n" {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkInvert16(b *testing.B) {
	m := Vandermonde[uint8](16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVecEncode(b *testing.B) {
	g := Cauchy[uint8](4, 10)
	shards := make([][]byte, 10)
	for i := range shards {
		shards[i] = make([]byte, 1<<16)
	}
	out := make([][]byte, 4)
	for i := range out {
		out[i] = make([]byte, 1<<16)
	}
	b.SetBytes(10 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MulVec(out, shards)
	}
}
