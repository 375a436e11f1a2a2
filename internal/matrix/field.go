package matrix

import (
	"repro/internal/gf"
	"repro/internal/gf16"
)

// Symbol is the element type of a supported field: uint8 for GF(2^8),
// uint16 for GF(2^16).
type Symbol interface{ uint8 | uint16 }

// Field is the arithmetic the matrices and the codes built on them need
// from GF(2^8) or GF(2^16). The bulk loops stay inside the per-field
// kernels (internal/gf, internal/gf16); a Field only forwards to them, so
// calling through it costs one dynamic call per row, never per symbol.
//
// Shard kernels work on byte slices that hold symbols packed little-endian,
// SymbolBytes bytes each, so every code speaks the same [][]byte currency.
type Field[S Symbol] interface {
	// Order is the number of field elements.
	Order() int
	// SymbolBytes is the width of one symbol packed in a shard.
	SymbolBytes() int
	Mul(a, b S) S
	Inv(a S) S
	// Exp returns base^e (0^0 = 1).
	Exp(base S, e int) S
	// Generator returns g^i for the field's primitive element g.
	Generator(i int) S
	// MulRow sets dst = c·src over symbol rows (Gaussian elimination).
	MulRow(c S, dst, src []S)
	// MulAddRow sets dst += c·src over symbol rows.
	MulAddRow(c S, dst, src []S)
	// MulAddSlice sets dst += c·src over packed shards.
	MulAddSlice(c S, dst, src []byte)
	// DotSlice sets dst = Σ coeffs[i]·srcs[i] over packed shards.
	DotSlice(dst []byte, coeffs []S, srcs [][]byte)
}

// GF8 is GF(2^8): one-byte symbols on the internal/gf kernels.
type GF8 struct{}

func (GF8) Order() int                                         { return gf.Order }
func (GF8) SymbolBytes() int                                   { return 1 }
func (GF8) Mul(a, b uint8) uint8                               { return gf.Mul(a, b) }
func (GF8) Inv(a uint8) uint8                                  { return gf.Inv(a) }
func (GF8) Exp(base uint8, e int) uint8                        { return gf.Exp(base, e) }
func (GF8) Generator(i int) uint8                              { return gf.Generator(i) }
func (GF8) MulRow(c uint8, dst, src []uint8)                   { gf.MulSlice(c, dst, src) }
func (GF8) MulAddRow(c uint8, dst, src []uint8)                { gf.MulAddSlice(c, dst, src) }
func (GF8) MulAddSlice(c uint8, dst, src []byte)               { gf.MulAddSlice(c, dst, src) }
func (GF8) DotSlice(dst []byte, coeffs []uint8, srcs [][]byte) { gf.DotSlice(dst, coeffs, srcs) }

// GF16 is GF(2^16): two-byte little-endian symbols on the internal/gf16
// kernels.
type GF16 struct{}

func (GF16) Order() int                                          { return gf16.Order }
func (GF16) SymbolBytes() int                                    { return gf16.SymbolBytes }
func (GF16) Mul(a, b uint16) uint16                              { return gf16.Mul(a, b) }
func (GF16) Inv(a uint16) uint16                                 { return gf16.Inv(a) }
func (GF16) Exp(base uint16, e int) uint16                       { return gf16.Exp(base, e) }
func (GF16) Generator(i int) uint16                              { return gf16.Generator(i) }
func (GF16) MulRow(c uint16, dst, src []uint16)                  { gf16.MulRow(c, dst, src) }
func (GF16) MulAddRow(c uint16, dst, src []uint16)               { gf16.MulAddRow(c, dst, src) }
func (GF16) MulAddSlice(c uint16, dst, src []byte)               { gf16.MulAddSlice(c, dst, src) }
func (GF16) DotSlice(dst []byte, coeffs []uint16, srcs [][]byte) { gf16.DotSlice(dst, coeffs, srcs) }

// FieldOf returns the field whose elements have type S.
func FieldOf[S Symbol]() Field[S] {
	var f any = GF16{}
	if _, ok := any(S(0)).(uint8); ok {
		f = GF8{}
	}
	return f.(Field[S])
}
