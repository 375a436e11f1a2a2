// Package rs implements the systematic Reed-Solomon candidate code RS(k,m):
// k data elements and m parity elements per row, tolerating any m erasures
// (MDS). This is the "Reed-Solomon Code for Google" candidate of the EC-FRM
// paper (§II-C), equivalent in behaviour to Jerasure's Vandermonde RS.
//
// The generator is built from a Cauchy block, whose every square submatrix
// is invertible, so the MDS property holds by construction for any (k,m)
// the field fits: k+m ≤ 256 over GF(2^8). RS16(k,m) is the same code over
// GF(2^16), lifting that ceiling to the widths production systems run to
// cut storage overhead (k in the tens to hundreds, overhead m/k of a few
// percent); its shards hold little-endian 16-bit symbols, so sizes must be
// even.
package rs

import (
	"fmt"

	"repro/internal/codes"
	"repro/internal/matrix"
)

// Code is a systematic Reed-Solomon code with parameters (k, m) over the
// field of S: RS(k,m) for uint8, RS16(k,m) for uint16.
type Code[S matrix.Symbol] struct {
	*codes.Base[S]
	k, m int
}

// New constructs RS(k,m) over GF(2^8). It returns an error when the
// parameters are out of the field's range or degenerate.
func New(k, m int) (*Code[uint8], error) { return newCode[uint8](k, m) }

// New16 constructs the wide-stripe RS16(k,m) over GF(2^16).
func New16(k, m int) (*Code[uint16], error) { return newCode[uint16](k, m) }

// Must constructs RS(k,m) and panics on invalid parameters. For tests and
// tables of known-good configurations.
func Must(k, m int) *Code[uint8] { return must(New(k, m)) }

// Must16 constructs RS16(k,m) and panics on invalid parameters.
func Must16(k, m int) *Code[uint16] { return must(New16(k, m)) }

func must[C any](c C, err error) C {
	if err != nil {
		panic(err)
	}
	return c
}

// newCode builds the generator identity(k) over Cauchy(m,k). The Cauchy
// block makes the code MDS by construction, so it declares tolerance m.
func newCode[S matrix.Symbol](k, m int) (*Code[S], error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("rs: invalid parameters k=%d m=%d", k, m)
	}
	if limit := codes.MaxElements[S](); k+m > limit {
		return nil, fmt.Errorf("rs: k+m = %d exceeds limit %d", k+m, limit)
	}
	gen := matrix.Identity[S](k).Stack(matrix.Cauchy[S](m, k))
	return &Code[S]{Base: codes.NewBase(gen, m), k: k, m: m}, nil
}

// Name returns "RS(k,m)", or "RS16(k,m)" over GF(2^16).
func (c *Code[S]) Name() string { return c.Label("RS", c.k, c.m) }

// M returns the number of parity elements per row.
func (c *Code[S]) M() int { return c.m }

// RecoverySets returns candidate read sets for rebuilding element idx when
// it is the only erasure. Every k-subset of the other n-1 elements works for
// an MDS code; enumerating all of them is exponential, so two linear
// families are offered:
//
//   - data-heavy sets: the other data elements plus one parity (one set per
//     parity; for a lost parity, just the k data elements). These maximize
//     overlap with a sequential read's direct accesses, so rebuilding costs
//     almost no extra I/O — the choice that keeps degraded read cost nearly
//     layout-independent (paper §VI-C, Figure 9a).
//   - cyclic windows: the k survivors following idx at stride 1 from offset
//     t. These give the planner genuinely different disk footprints to
//     balance load across.
func (c *Code[S]) RecoverySets(idx int) [][]int {
	n, k := c.N(), c.k
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("rs: element %d out of [0,%d)", idx, n))
	}
	var sets [][]int
	otherData := make([]int, 0, k)
	for j := 0; j < k && len(otherData) < k; j++ {
		if j != idx {
			otherData = append(otherData, j)
		}
	}
	if idx < k {
		// Lost data: other k-1 data + each parity in turn.
		for p := k; p < n; p++ {
			sets = append(sets, append(append([]int{}, otherData...), p))
		}
	} else {
		// Lost parity: recompute from the k data elements.
		sets = append(sets, otherData)
	}
	for t := 0; t < n-k; t++ {
		set := make([]int, 0, k)
		for j := 0; j < k; j++ {
			set = append(set, (idx+1+t+j)%n)
		}
		sets = append(sets, set)
	}
	return sets
}

var (
	_ codes.Code              = (*Code[uint8])(nil)
	_ codes.IntoEncoder       = (*Code[uint16])(nil)
	_ codes.IntoReconstructor = (*Code[uint8])(nil)
	_ codes.WideSymbolCode    = (*Code[uint16])(nil)
)
