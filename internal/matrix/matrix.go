// Package matrix implements dense linear algebra over GF(2^8) and
// GF(2^16).
//
// It provides the machinery the erasure codes are built from: matrix
// products, Gaussian elimination (inversion, rank, general linear solves),
// and the classic Vandermonde and Cauchy constructions used to build
// systematic MDS generator matrices.
//
// A Matrix[S] is a rows×cols table of field elements stored row-major; the
// symbol type S picks the field (see Field). GF(2^16) exists for wide
// stripes, whose n = k+m can exceed GF(2^8)'s 256 distinct points. The zero
// Matrix is empty; use New or one of the constructors.
package matrix

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSingular is returned when an operation requires an invertible matrix
// and the input is rank-deficient.
var ErrSingular = errors.New("matrix: singular")

// ErrUnsolvable is returned by SpanSolve when a requested target row is not
// in the row span of the available rows, i.e. the corresponding element is
// information-theoretically unrecoverable.
var ErrUnsolvable = errors.New("matrix: target not in row span")

// Matrix is a dense rows×cols matrix over the field with symbols of type S.
type Matrix[S Symbol] struct {
	rows, cols int
	data       []S // row-major, len rows*cols
	f          Field[S]
}

// New returns a zero-valued rows×cols matrix. It panics if either dimension
// is negative or the product overflows.
func New[S Symbol](rows, cols int) *Matrix[S] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix[S]{rows: rows, cols: cols, data: make([]S, rows*cols), f: FieldOf[S]()}
}

// FromRows builds a matrix from a slice of equally sized rows, copying the
// contents. It panics if rows are ragged.
func FromRows[S Symbol](rows [][]S) *Matrix[S] {
	if len(rows) == 0 {
		return New[S](0, 0)
	}
	m := New[S](len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity[S Symbol](n int) *Matrix[S] {
	m := New[S](n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols Vandermonde matrix V[i][j] = g(i)^j
// where g(i) enumerates distinct nonzero field points (the generator powers
// would collide for rows >= Order-1, so i itself is used as the evaluation
// point, starting at 0: V[i][j] = i^j with 0^0 = 1).
//
// Any k rows of a Vandermonde matrix with distinct evaluation points are
// linearly independent when cols = k, which is the MDS property RS needs.
// rows must be at most the field order so evaluation points stay distinct.
func Vandermonde[S Symbol](rows, cols int) *Matrix[S] {
	if rows > FieldOf[S]().Order() {
		panic(fmt.Sprintf("matrix: Vandermonde rows %d exceeds field size", rows))
	}
	m := New[S](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, m.f.Exp(S(i), j))
		}
	}
	return m
}

// Cauchy returns the rows×cols Cauchy matrix C[i][j] = 1/(x_i + y_j) with
// x_i = i + cols and y_j = j. Every square submatrix of a Cauchy matrix is
// invertible, so it yields MDS codes directly. rows+cols must not exceed
// the field order.
func Cauchy[S Symbol](rows, cols int) *Matrix[S] {
	if rows+cols > FieldOf[S]().Order() {
		panic(fmt.Sprintf("matrix: Cauchy %d+%d exceeds field size", rows, cols))
	}
	m := New[S](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, m.f.Inv(S(i+cols)^S(j)))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix[S]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix[S]) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix[S]) At(i, j int) S {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix[S]) Set(i, j int, v S) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix[S]) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Matrix[S]) Row(i int) []S {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy.
func (m *Matrix[S]) Clone() *Matrix[S] {
	c := New[S](m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix[S]) Equal(o *Matrix[S]) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the product m·o. It panics on a dimension mismatch.
func (m *Matrix[S]) Mul(o *Matrix[S]) *Matrix[S] {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %d×%d · %d×%d", m.rows, m.cols, o.rows, o.cols))
	}
	p := New[S](m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mr := m.Row(i)
		pr := p.Row(i)
		for t := 0; t < m.cols; t++ {
			m.f.MulAddRow(mr[t], pr, o.Row(t))
		}
	}
	return p
}

// MulVec applies the matrix to a vector of data shards: out[i] is the GF
// linear combination of shards with coefficients from row i. Shards hold
// packed symbols (see Field); all must share one length, a whole number of
// symbols, and out must have m.Rows() slices of that length.
func (m *Matrix[S]) MulVec(out, shards [][]byte) {
	if len(shards) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec got %d shards, want %d", len(shards), m.cols))
	}
	if len(out) != m.rows {
		panic(fmt.Sprintf("matrix: MulVec got %d outputs, want %d", len(out), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.f.DotSlice(out[i], m.Row(i), shards)
	}
}

// Augment returns [m | o] side by side. Row counts must match.
func (m *Matrix[S]) Augment(o *Matrix[S]) *Matrix[S] {
	if m.rows != o.rows {
		panic(fmt.Sprintf("matrix: Augment row mismatch %d != %d", m.rows, o.rows))
	}
	a := New[S](m.rows, m.cols+o.cols)
	for i := 0; i < m.rows; i++ {
		copy(a.Row(i)[:m.cols], m.Row(i))
		copy(a.Row(i)[m.cols:], o.Row(i))
	}
	return a
}

// Stack returns m on top of o. Column counts must match.
func (m *Matrix[S]) Stack(o *Matrix[S]) *Matrix[S] {
	if m.cols != o.cols {
		panic(fmt.Sprintf("matrix: Stack column mismatch %d != %d", m.cols, o.cols))
	}
	s := New[S](m.rows+o.rows, m.cols)
	copy(s.data, m.data)
	copy(s.data[m.rows*m.cols:], o.data)
	return s
}

// SubMatrix returns the rectangle [r0,r1)×[c0,c1) as a copy.
func (m *Matrix[S]) SubMatrix(r0, r1, c0, c1 int) *Matrix[S] {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: SubMatrix [%d:%d,%d:%d] out of %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	s := New[S](r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.Row(i)[c0:c1])
	}
	return s
}

// SelectRows returns a new matrix whose rows are m's rows at the given
// indices, in order. Indices may repeat.
func (m *Matrix[S]) SelectRows(idx []int) *Matrix[S] {
	s := New[S](len(idx), m.cols)
	for i, r := range idx {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix[S]) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for t := range ri {
		ri[t], rj[t] = rj[t], ri[t]
	}
}

// gaussianCols row-reduces m in place, choosing pivots only from the first
// maxCol columns (later columns still participate in row operations). It
// returns the number of pivots found, i.e. the rank of the left block.
func (m *Matrix[S]) gaussianCols(maxCol int) int {
	rank := 0
	for col := 0; col < maxCol && rank < m.rows; col++ {
		// Find a pivot at or below `rank` in this column.
		pivot := -1
		for r := rank; r < m.rows; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.SwapRows(rank, pivot)
		// Scale the pivot row so the pivot is 1.
		inv := m.f.Inv(m.At(rank, col))
		m.f.MulRow(inv, m.Row(rank), m.Row(rank))
		// Eliminate the column everywhere else.
		for r := 0; r < m.rows; r++ {
			if r != rank && m.At(r, col) != 0 {
				m.f.MulAddRow(m.At(r, col), m.Row(r), m.Row(rank))
			}
		}
		rank++
	}
	return rank
}

// Rank returns the rank of the matrix.
func (m *Matrix[S]) Rank() int {
	return m.Clone().gaussianCols(m.cols)
}

// Invert returns the inverse of a square matrix, or ErrSingular.
func (m *Matrix[S]) Invert() (*Matrix[S], error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %d×%d", m.rows, m.cols)
	}
	aug := m.Augment(Identity[S](m.rows))
	if aug.gaussianCols(m.cols) < m.rows {
		return nil, ErrSingular
	}
	return aug.SubMatrix(0, m.rows, m.cols, 2*m.cols), nil
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix[S]) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Equal(Identity[S](m.rows))
}

// SpanSolve expresses each target row as a linear combination of the
// available rows. available is a set of row vectors (each length w);
// targets likewise. The returned coefficient matrix C (len(targets) ×
// len(available)) satisfies targets = C · available.
//
// This is the general erasure decoder: rows are generator-matrix rows of
// surviving elements; targets are the rows of erased elements. A target
// outside the span returns ErrUnsolvable.
func SpanSolve[S Symbol](available, targets *Matrix[S]) (*Matrix[S], error) {
	if available.cols != targets.cols {
		return nil, fmt.Errorf("matrix: SpanSolve width mismatch %d != %d", available.cols, targets.cols)
	}
	na := available.rows
	// Row-reduce [available | I]; the right block tracks the combination
	// of original available rows that produced each reduced row.
	work := available.Augment(Identity[S](na))
	w := available.cols
	rank := work.gaussianCols(w)
	// In reduced row-echelon form each reduced row's first nonzero entry in
	// the left block is its pivot.
	pivotCol := make([]int, rank)
	for r := range pivotCol {
		for work.At(r, pivotCol[r]) == 0 {
			pivotCol[r]++
		}
	}

	f := available.f
	coeff := New[S](targets.rows, na)
	resid := make([]S, w)
	comb := make([]S, na)
	for t := 0; t < targets.rows; t++ {
		copy(resid, targets.Row(t))
		for i := range comb {
			comb[i] = 0
		}
		for r, pc := range pivotCol {
			c := resid[pc]
			if c == 0 {
				continue
			}
			// Subtract c × reduced-row r; accumulate the same combination
			// of original rows.
			f.MulAddRow(c, resid, work.Row(r)[:w])
			f.MulAddRow(c, comb, work.Row(r)[w:])
		}
		for _, v := range resid {
			if v != 0 {
				return nil, ErrUnsolvable
			}
		}
		copy(coeff.Row(t), comb)
	}
	return coeff, nil
}

// String renders the matrix for debugging, one row per line.
func (m *Matrix[S]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%0*x", 2*m.f.SymbolBytes(), m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
