// Package lrc implements the Azure-style Local Reconstruction Code candidate
// LRC(k,l,m): k data elements split into l equal local groups, each with one
// XOR local parity, plus m global parities over all data (the "LRC Code for
// Azure" candidate of the EC-FRM paper, §II-C, Equations 5-8).
//
// Element order within a row follows the paper's figures:
//
//	d_0 … d_{k-1}  l_0 … l_{l-1}  m_0 … m_{m-1}
//
// Global parity t (t = 0..m-1) assigns data element j the coefficient
// x_j^(t+1), where the x_j are distinct nonzero field points — exactly the
// a_i / b_i, a_i² / b_i² structure of the paper's Equations (7) and (8).
// The constructor tries a small family of point assignments and keeps the
// first whose Azure guarantee of m+1 tolerated erasures survives an audit,
// since a careless assignment can make a split erasure pattern such as
// {d0,d1,d3,d4} singular.
//
// LRC16(k,l,m) is the same construction over GF(2^16), so wide stripes (k in
// the tens to hundreds) keep LRC's cheap local repair; its shards hold
// little-endian 16-bit symbols, so sizes must be even.
package lrc

import (
	"fmt"
	"math/rand"

	"repro/internal/codes"
	"repro/internal/matrix"
)

// Audit budget for a candidate point assignment: enumerate every erasure
// pattern when there are at most auditExhaustive — a proof, which covers
// every GF(2^8) configuration this repo builds — else sample auditSamples
// patterns with a fixed seed. Kept modest: construction cost is paid per
// (k,l,m), while tests audit with much larger budgets.
const (
	auditExhaustive = 20000
	auditSamples    = 48
)

// Code is an Azure-style LRC with parameters (k, l, m) over the field of S:
// LRC(k,l,m) for uint8, LRC16(k,l,m) for uint16.
type Code[S matrix.Symbol] struct {
	*codes.Base[S]
	k, l, m   int
	groupSize int
	points    []S // x_j for data element j
}

// New constructs LRC(k,l,m) over GF(2^8). l must divide k; k+l+m must fit
// the field.
func New(k, l, m int) (*Code[uint8], error) { return newCode[uint8](k, l, m) }

// New16 constructs the wide-stripe LRC16(k,l,m) over GF(2^16).
func New16(k, l, m int) (*Code[uint16], error) { return newCode[uint16](k, l, m) }

// Must constructs LRC(k,l,m) and panics on invalid parameters.
func Must(k, l, m int) *Code[uint8] { return must(New(k, l, m)) }

// Must16 constructs LRC16(k,l,m) and panics on invalid parameters.
func Must16(k, l, m int) *Code[uint16] { return must(New16(k, l, m)) }

func must[C any](c C, err error) C {
	if err != nil {
		panic(err)
	}
	return c
}

func newCode[S matrix.Symbol](k, l, m int) (*Code[S], error) {
	if k < 1 || l < 1 || m < 1 {
		return nil, fmt.Errorf("lrc: invalid parameters k=%d l=%d m=%d", k, l, m)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: l=%d must divide k=%d", l, k)
	}
	if limit := codes.MaxElements[S](); k+l+m > limit {
		return nil, fmt.Errorf("lrc: k+l+m = %d exceeds limit %d", k+l+m, limit)
	}
	f := matrix.FieldOf[S]()
	audit := func(c *Code[S]) []int {
		rng := rand.New(rand.NewSource(int64(k)<<32 | int64(l)<<16 | int64(m)))
		return c.VerifyFaultTolerance(auditExhaustive, auditSamples, rng.Intn)
	}
	// Try point assignments x_j = g^(j·stride + 1). Distinct strides change
	// which cross-group sums coincide; keep the first whose declared m+1
	// tolerance passes the audit (no assignment does better for l ≥ 2).
	for _, stride := range []int{1, 2, 3, 5, 7, 11} {
		if (k*stride)%(f.Order()-1) == 0 {
			continue // points would repeat
		}
		points := make([]S, k)
		seen := make(map[S]bool, k)
		ok := true
		for j := range points {
			points[j] = f.Generator(j*stride + 1)
			if points[j] == 0 || seen[points[j]] {
				ok = false
				break
			}
			seen[points[j]] = true
		}
		if !ok {
			continue
		}
		if c := build(k, l, m, points, m+1); audit(c) == nil {
			return c, nil
		}
	}
	// No assignment passed at m+1; fall back to the plain-RS-style m
	// guarantee with the first assignment.
	points := make([]S, k)
	for j := range points {
		points[j] = f.Generator(j + 1)
	}
	c := build(k, l, m, points, m)
	if bad := audit(c); bad != nil {
		return nil, fmt.Errorf("lrc: no point assignment reaches tolerance %d for (%d,%d,%d); pattern %v unrecoverable", m, k, l, m, bad)
	}
	return c, nil
}

func build[S matrix.Symbol](k, l, m int, points []S, declaredFT int) *Code[S] {
	n := k + l + m
	gen := matrix.New[S](n, k)
	f := matrix.FieldOf[S]()
	for j := 0; j < k; j++ {
		gen.Set(j, j, 1) // systematic
	}
	groupSize := k / l
	for g := 0; g < l; g++ {
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			gen.Set(k+g, j, 1) // local parity: XOR of its group
		}
	}
	for t := 0; t < m; t++ {
		for j := 0; j < k; j++ {
			gen.Set(k+l+t, j, f.Exp(points[j], t+1))
		}
	}
	return &Code[S]{
		Base: codes.NewBase(gen, declaredFT),
		k:    k, l: l, m: m,
		groupSize: groupSize,
		points:    points,
	}
}

// Name returns "LRC(k,l,m)", or "LRC16(k,l,m)" over GF(2^16).
func (c *Code[S]) Name() string { return c.Label("LRC", c.k, c.l, c.m) }

// L returns the number of local parity elements per row.
func (c *Code[S]) L() int { return c.l }

// M returns the number of global parity elements per row.
func (c *Code[S]) M() int { return c.m }

// GroupSize returns k/l, the number of data elements per local group.
func (c *Code[S]) GroupSize() int { return c.groupSize }

// LocalGroup returns the index of the local group that element idx belongs
// to, or -1 for global parities (which belong to no local group).
func (c *Code[S]) LocalGroup(idx int) int {
	switch {
	case idx < 0 || idx >= c.N():
		panic(fmt.Sprintf("lrc: element %d out of [0,%d)", idx, c.N()))
	case idx < c.k:
		return idx / c.groupSize
	case idx < c.k+c.l:
		return idx - c.k
	default:
		return -1
	}
}

// RecoverySets returns candidate read sets for element idx when it is the
// only erasure, cheapest first:
//
//   - data element: its local group's other data + local parity (k/l reads),
//     then one global alternative (all other data + one global parity);
//   - local parity: its group's data (k/l reads), then a global alternative;
//   - global parity: all k data elements (the only minimal option), with the
//     remaining global parities offering no cheaper route.
//
// The local-first ordering is what gives LRC its degraded-read I/O savings
// (paper §II-C); the global alternates let the planner dodge hot disks.
func (c *Code[S]) RecoverySets(idx int) [][]int {
	k, l, m, groupSize := c.k, c.l, c.m, c.groupSize
	n := k + l + m
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("lrc: element %d out of [0,%d)", idx, n))
	}
	allData := func(except int) []int {
		s := make([]int, 0, k)
		for j := 0; j < k; j++ {
			if j != except {
				s = append(s, j)
			}
		}
		return s
	}
	var sets [][]int
	switch {
	case idx < k: // data element
		g := idx / groupSize
		local := make([]int, 0, groupSize)
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			if j != idx {
				local = append(local, j)
			}
		}
		local = append(local, k+g)
		sets = append(sets, local)
		for t := 0; t < m; t++ {
			sets = append(sets, append(allData(idx), k+l+t))
		}
	case idx < k+l: // local parity
		g := idx - k
		local := make([]int, 0, groupSize)
		for j := g * groupSize; j < (g+1)*groupSize; j++ {
			local = append(local, j)
		}
		sets = append(sets, local)
	default: // global parity
		sets = append(sets, allData(-1))
	}
	return sets
}

var (
	_ codes.Code              = (*Code[uint8])(nil)
	_ codes.IntoEncoder       = (*Code[uint16])(nil)
	_ codes.IntoReconstructor = (*Code[uint8])(nil)
	_ codes.WideSymbolCode    = (*Code[uint16])(nil)
)
