package codes_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmatrix"
	"repro/internal/codes"
	"repro/internal/crs"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// TestGoldenCodes pins everything about a code that reaches the disk: the
// scheme name that persisted manifests are matched against, the declared
// fault tolerance, the generator matrix, the CRS bit generator, and the
// parity of one seeded encode. A pin that disagrees means existing data
// directories would no longer decode; fix the code, never the pin.
//
// The generator is reached through reflection and hashed via its String
// rendering, so the table does not depend on how the matrix type is spelled.
func TestGoldenCodes(t *testing.T) {
	for _, tc := range []struct {
		code                codes.Code
		name                string
		ft                  int
		gen, bitGen, parity string
	}{
		{rs.Must(4, 2), "RS(4,2)", 2, "5c8917a79b39ef27", "", "c1cd549539fdf112"},
		{rs.Must(4, 3), "RS(4,3)", 3, "2075dc4b1ab44362", "", "47ffc7e65d50894e"},
		{rs.Must(6, 3), "RS(6,3)", 3, "24834d57c54e6468", "", "c212a9c914871a49"},
		{rs.Must(8, 4), "RS(8,4)", 4, "e9934faa739a59bb", "", "991a04dec7a4d204"},
		{rs.Must(10, 5), "RS(10,5)", 5, "367794bb65ea6c1a", "", "ed02df92f9aa8fe4"},
		{lrc.Must(6, 2, 2), "LRC(6,2,2)", 3, "e1b9fb9859538af3", "", "e95567fed2a70393"},
		{lrc.Must(8, 2, 3), "LRC(8,2,3)", 4, "ff348eb651daf5c6", "", "6956b0ed05eb2d51"},
		{lrc.Must(10, 2, 4), "LRC(10,2,4)", 5, "a3c09aca905ba98d", "", "c1ea3fe1b0de30f7"},
		{crs.Must(4, 2), "CRS(4,2)", 2, "5c8917a79b39ef27", "1b8d59501c5a05a5", "9fc6f69051dcfdf4"},
		{crs.Must(6, 3), "CRS(6,3)", 3, "24834d57c54e6468", "c6064b8d750a4f24", "1ff6904d195b970c"},
		{rs.Must16(32, 4), "RS16(32,4)", 4, "4f9445bc88aab39f", "", "5f213d437029e3e0"},
		{rs.Must16(64, 4), "RS16(64,4)", 4, "c98e43f502d10e27", "", "1acd4952c54bb7ce"},
		{rs.Must16(128, 4), "RS16(128,4)", 4, "509b2a3541af9fce", "", "5ba4074d27101313"},
		{lrc.Must16(32, 4, 2), "LRC16(32,4,2)", 3, "6f6b70e4320b0c6d", "", "e3c08eb2234da7ce"},
		{lrc.Must16(64, 8, 2), "LRC16(64,8,2)", 3, "a48eb588bc9f7c2e", "", "17b8e1ce3d2eae54"},
		{crs.Must16(8, 3), "CRS16(8,3)", 3, "e7a5e7ef1f3341a3", "b1d40dde76575c3a", "982ddeb5ae41aca9"},
		{crs.Must16(32, 3), "CRS16(32,3)", 3, "e1c3b55f47323b73", "664b21928af68fa1", "018ca867a2b68bbe"},
		{crs.Must16(64, 4), "CRS16(64,4)", 4, "c98e43f502d10e27", "ffdfcad1f37c8883", "6ff2147b9b13aa09"},
	} {
		c := tc.code
		if got := c.Name(); got != tc.name {
			t.Errorf("%s: Name() = %q", tc.name, got)
		}
		if got := c.FaultTolerance(); got != tc.ft {
			t.Errorf("%s: FaultTolerance() = %d, want %d", tc.name, got, tc.ft)
		}
		gen := reflect.ValueOf(c).MethodByName("Generator").Call(nil)[0].Interface().(fmt.Stringer)
		if got := digest([]byte(gen.String())); got != tc.gen {
			t.Errorf("%s: generator digest = %s", tc.name, got)
		}
		bitGen := ""
		if b, ok := c.(interface{ BitGenerator() *bitmatrix.Matrix }); ok {
			bitGen = digest([]byte(b.BitGenerator().String()))
		}
		if bitGen != tc.bitGen {
			t.Errorf("%s: bit generator digest = %s", tc.name, bitGen)
		}
		rng := rand.New(rand.NewSource(int64(c.N())))
		data := make([][]byte, c.K())
		for i := range data {
			data[i] = make([]byte, 64) // a whole number of packets for every code
			rng.Read(data[i])
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var all []byte
		for _, p := range parity {
			all = append(all, p...)
		}
		if got := digest(all); got != tc.parity {
			t.Errorf("%s: parity digest = %s", tc.name, got)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
