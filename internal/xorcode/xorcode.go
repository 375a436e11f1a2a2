// Package xorcode is a generic engine for XOR-linear array codes: a code is
// declared as a grid of data cells plus an ordered list of parity equations
// (each parity cell = XOR of previously defined cells), and the engine
// derives encoding, whole-disk reconstruction, and decodability analysis.
//
// The declaration style covers the classic array codes the EC-FRM paper
// surveys (§II-B): vertical codes (X-Code, WEAVER — see internal/vertical)
// and horizontal RAID-6 array codes (RDP, EVENODD), including codes like
// RDP whose diagonal parity is computed over another parity column.
//
// Decoding is exact: erased cells are unknowns in the GF(2) constraint
// system given by all equations, solved per byte-vector with
// bitmatrix.SolveVec; a failure pattern is recoverable iff the system has
// full column rank, so decodability is decided, not pattern-matched.
package xorcode

import (
	"errors"
	"fmt"

	"repro/internal/bitmatrix"
)

// ErrUnrecoverable is returned when a failure pattern cannot be decoded.
var ErrUnrecoverable = errors.New("xorcode: failure pattern unrecoverable")

// ErrShardSize flags missing or ragged cell data.
var ErrShardSize = errors.New("xorcode: invalid cell sizes")

// CellRef addresses a cell in the (rows × disks) array.
type CellRef struct {
	Row  int
	Disk int
}

// Equation defines one parity cell as the XOR of its sources.
type Equation struct {
	Target  CellRef
	Sources []CellRef
}

// Code is an XOR-linear array code.
type Code struct {
	name  string
	rows  int
	disks int
	data  map[CellRef]bool
	eqs   []Equation      // in evaluation order
	byTgt map[CellRef]int // target → eqs index
}

// New validates and builds a code. Every cell must be either a data cell or
// the target of exactly one equation; equation sources must be data cells or
// targets of earlier equations (so Encode can evaluate in order).
func New(name string, rows, disks int, data []CellRef, eqs []Equation) (*Code, error) {
	if rows < 1 || disks < 1 {
		return nil, fmt.Errorf("xorcode: invalid array %d×%d", rows, disks)
	}
	c := &Code{
		name: name, rows: rows, disks: disks,
		data:  make(map[CellRef]bool, len(data)),
		eqs:   eqs,
		byTgt: make(map[CellRef]int, len(eqs)),
	}
	inRange := func(ref CellRef) bool {
		return ref.Row >= 0 && ref.Row < rows && ref.Disk >= 0 && ref.Disk < disks
	}
	for _, ref := range data {
		if !inRange(ref) {
			return nil, fmt.Errorf("xorcode: data cell %v out of %d×%d", ref, rows, disks)
		}
		if c.data[ref] {
			return nil, fmt.Errorf("xorcode: duplicate data cell %v", ref)
		}
		c.data[ref] = true
	}
	defined := make(map[CellRef]bool, len(eqs))
	for i, eq := range eqs {
		if !inRange(eq.Target) {
			return nil, fmt.Errorf("xorcode: equation %d target %v out of range", i, eq.Target)
		}
		if c.data[eq.Target] {
			return nil, fmt.Errorf("xorcode: equation %d target %v is a data cell", i, eq.Target)
		}
		if defined[eq.Target] {
			return nil, fmt.Errorf("xorcode: cell %v defined twice", eq.Target)
		}
		if len(eq.Sources) == 0 {
			return nil, fmt.Errorf("xorcode: equation %d has no sources", i)
		}
		seen := make(map[CellRef]bool, len(eq.Sources))
		for _, s := range eq.Sources {
			if !inRange(s) {
				return nil, fmt.Errorf("xorcode: equation %d source %v out of range", i, s)
			}
			if !c.data[s] && !defined[s] {
				return nil, fmt.Errorf("xorcode: equation %d source %v is neither data nor previously defined parity", i, s)
			}
			if seen[s] {
				return nil, fmt.Errorf("xorcode: equation %d repeats source %v", i, s)
			}
			seen[s] = true
		}
		defined[eq.Target] = true
		c.byTgt[eq.Target] = i
	}
	if len(c.data)+len(eqs) != rows*disks {
		return nil, fmt.Errorf("xorcode: %d data + %d parity cells cover %d of %d cells",
			len(c.data), len(eqs), len(c.data)+len(eqs), rows*disks)
	}
	return c, nil
}

// Name identifies the code.
func (c *Code) Name() string { return c.name }

// Rows returns the number of rows in the array.
func (c *Code) Rows() int { return c.rows }

// Disks returns the number of disks (columns).
func (c *Code) Disks() int { return c.disks }

// IsData reports whether the cell holds data.
func (c *Code) IsData(ref CellRef) bool { return c.data[ref] }

// DataCells returns the number of data cells per array.
func (c *Code) DataCells() int { return len(c.data) }

// StorageOverhead returns total cells / data cells.
func (c *Code) StorageOverhead() float64 {
	return float64(c.rows*c.disks) / float64(len(c.data))
}

// DataRefs lists the data cells in row-major order — the order user bytes
// fill the array.
func (c *Code) DataRefs() []CellRef {
	var out []CellRef
	for r := 0; r < c.rows; r++ {
		for d := 0; d < c.disks; d++ {
			ref := CellRef{r, d}
			if c.data[ref] {
				out = append(out, ref)
			}
		}
	}
	return out
}

// Idx flattens a cell reference into the row-major cells index.
func (c *Code) Idx(ref CellRef) int { return ref.Row*c.disks + ref.Disk }

// Encode fills the parity cells of a full array in place. cells is indexed
// row-major; data cells must be non-nil and equally sized.
func (c *Code) Encode(cells [][]byte) error {
	if len(cells) != c.rows*c.disks {
		return fmt.Errorf("%w: got %d cells, want %d", ErrShardSize, len(cells), c.rows*c.disks)
	}
	size := -1
	for ref := range c.data {
		cell := cells[c.Idx(ref)]
		if cell == nil {
			return fmt.Errorf("%w: data cell %v is nil", ErrShardSize, ref)
		}
		if size == -1 {
			size = len(cell)
		}
		if len(cell) != size {
			return fmt.Errorf("%w: cell %v has %d bytes, want %d", ErrShardSize, ref, len(cell), size)
		}
	}
	for _, eq := range c.eqs {
		out := make([]byte, size)
		for _, s := range eq.Sources {
			src := cells[c.Idx(s)]
			for i := range out {
				out[i] ^= src[i]
			}
		}
		cells[c.Idx(eq.Target)] = out
	}
	return nil
}

// CanRecover reports whether losing the given disks entirely is decodable.
func (c *Code) CanRecover(failedDisks []int) bool {
	failed := make(map[int]bool)
	for _, d := range failedDisks {
		if d < 0 || d >= c.disks {
			return false
		}
		failed[d] = true
	}
	unknowns, A := c.buildSystem(failed, nil, nil)
	if len(unknowns) == 0 {
		return true
	}
	return A.Rank() == len(unknowns)
}

// buildSystem constructs the GF(2) constraint matrix over the erased cells
// of the failed disks. If cells and rhsOut are non-nil, the constant side of
// each kept equation (XOR of its known cells) is appended to rhsOut;
// equations touching no unknown are dropped.
func (c *Code) buildSystem(failed map[int]bool, cells [][]byte, rhsOut *[][]byte) ([]CellRef, *bitmatrix.Matrix) {
	unknownIdx := make(map[CellRef]int)
	var unknowns []CellRef
	for r := 0; r < c.rows; r++ {
		for d := 0; d < c.disks; d++ {
			if failed[d] {
				ref := CellRef{r, d}
				unknownIdx[ref] = len(unknowns)
				unknowns = append(unknowns, ref)
			}
		}
	}
	size := 0
	if cells != nil {
		for _, cl := range cells {
			if cl != nil {
				size = len(cl)
				break
			}
		}
	}
	var rows [][]int
	for _, eq := range c.eqs {
		var row []int
		var cst []byte
		if cells != nil {
			cst = make([]byte, size)
		}
		touch := func(ref CellRef) {
			if i, ok := unknownIdx[ref]; ok {
				row = append(row, i)
				return
			}
			if cells != nil {
				src := cells[c.Idx(ref)]
				for b := range cst {
					cst[b] ^= src[b]
				}
			}
		}
		touch(eq.Target)
		for _, s := range eq.Sources {
			touch(s)
		}
		if len(row) == 0 {
			continue
		}
		rows = append(rows, row)
		if rhsOut != nil {
			*rhsOut = append(*rhsOut, cst)
		}
	}
	A := bitmatrix.New(len(rows), len(unknowns))
	for i, row := range rows {
		for _, j := range row {
			A.Set(i, j, true)
		}
	}
	return unknowns, A
}

// ReconstructDisks rebuilds every cell of the failed disks in place. cells
// is the full array with the failed disks' cells nil.
func (c *Code) ReconstructDisks(cells [][]byte, failedDisks []int) error {
	if len(cells) != c.rows*c.disks {
		return fmt.Errorf("%w: got %d cells, want %d", ErrShardSize, len(cells), c.rows*c.disks)
	}
	failed := make(map[int]bool)
	for _, d := range failedDisks {
		if d < 0 || d >= c.disks {
			return fmt.Errorf("%w: disk %d out of range", ErrShardSize, d)
		}
		failed[d] = true
	}
	if len(failed) == 0 {
		return nil
	}
	// Every cell on a surviving disk must be present and equally sized;
	// failed-disk cells are treated as erased regardless of content.
	size := -1
	for r := 0; r < c.rows; r++ {
		for d := 0; d < c.disks; d++ {
			if failed[d] {
				cells[c.Idx(CellRef{Row: r, Disk: d})] = nil
				continue
			}
			cell := cells[c.Idx(CellRef{Row: r, Disk: d})]
			if cell == nil {
				return fmt.Errorf("%w: cell (%d,%d) nil on surviving disk", ErrShardSize, r, d)
			}
			if size == -1 {
				size = len(cell)
			}
			if len(cell) != size {
				return fmt.Errorf("%w: cell (%d,%d) has %d bytes, want %d", ErrShardSize, r, d, len(cell), size)
			}
		}
	}
	var rhs [][]byte
	unknowns, A := c.buildSystem(failed, cells, &rhs)
	if len(unknowns) == 0 {
		return nil
	}
	sol, err := A.SolveVec(rhs)
	if err != nil {
		return fmt.Errorf("%w: disks %v", ErrUnrecoverable, failedDisks)
	}
	for i, ref := range unknowns {
		cells[c.Idx(ref)] = sol[i]
	}
	return nil
}
