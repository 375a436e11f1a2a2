package crs

import (
	"repro/internal/bitmatrix"
)

// Op is one step of an XOR schedule. If Copy is true the destination packet
// is overwritten with the source; otherwise the source is XORed in.
// Sources index the unified packet space: data packets are [0, k·w), output
// (parity) packets [k·w, n·w).
type Op struct {
	Dst  int
	Src  int
	Copy bool
}

// Schedule is a precomputed XOR program that produces the parity packets of
// one stripe. It mirrors Jerasure's "smart scheduling": instead of XORing
// every set bit of each parity bit-row from scratch, a row may start from a
// previously computed parity row and apply only the differing inputs, which
// shrinks the XOR count whenever adjacent rows overlap (Cauchy rows overlap
// heavily by construction).
type Schedule struct {
	k, m int
	ops  []Op
}

// Ops returns the number of XOR/copy operations in the schedule.
func (s *Schedule) Ops() int { return len(s.ops) }

// buildSchedule derives a schedule from the parity block of the binary
// generator (rows = m·w parity bit-rows over k·w data columns) using a
// greedy nearest-base heuristic: each output row is computed either directly
// from its inputs or as a delta from an already computed output row,
// whichever costs fewer XORs. w is the symbol width in bits.
func buildSchedule(parityBits *bitmatrix.Matrix, w, k, m int) *Schedule {
	rowsN := parityBits.Rows()
	colsN := parityBits.Cols()
	sched := &Schedule{k: k, m: m}
	rowBits := func(r int) []bool {
		out := make([]bool, colsN)
		for j := 0; j < colsN; j++ {
			out[j] = parityBits.At(r, j)
		}
		return out
	}
	computed := make([][]bool, 0, rowsN)
	for r := 0; r < rowsN; r++ {
		bits := rowBits(r)
		direct := 0
		for _, b := range bits {
			if b {
				direct++
			}
		}
		// Direct cost: first input is a copy, the rest XORs → `direct` ops.
		bestCost := direct
		bestBase := -1
		for base, bbits := range computed {
			diff := 0
			for j := 0; j < colsN; j++ {
				if bits[j] != bbits[j] {
					diff++
				}
			}
			// Base copy (1 op) plus one XOR per differing input.
			if cost := 1 + diff; cost < bestCost {
				bestCost = cost
				bestBase = base
			}
		}
		dst := k*w + r
		if bestBase < 0 {
			first := true
			for j := 0; j < colsN; j++ {
				if bits[j] {
					sched.ops = append(sched.ops, Op{Dst: dst, Src: j, Copy: first})
					first = false
				}
			}
			if first {
				// All-zero row (cannot happen for Cauchy blocks, but keep
				// the schedule total): emit a self-zeroing copy marker.
				sched.ops = append(sched.ops, Op{Dst: dst, Src: dst, Copy: true})
			}
		} else {
			sched.ops = append(sched.ops, Op{Dst: dst, Src: k*w + bestBase, Copy: true})
			base := computed[bestBase]
			for j := 0; j < colsN; j++ {
				if bits[j] != base[j] {
					sched.ops = append(sched.ops, Op{Dst: dst, Src: j})
				}
			}
		}
		computed = append(computed, bits)
	}
	return sched
}
