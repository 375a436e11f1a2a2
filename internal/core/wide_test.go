package core

import (
	"bytes"
	"testing"

	"repro/internal/codes"
	"repro/internal/crs"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// TestWideStripeSchemes drives GF(2^16) codes at production stripe widths
// (k = 32/64/128) through the framework end to end: encode, verify, repair
// after FaultTolerance() disk failures, and plan+execute a degraded read.
// This is the integration gate for the wide-stripe hot path — the widths are
// far beyond the 256-element ceiling the GF(2^8) codes top out at.
func TestWideStripeSchemes(t *testing.T) {
	const size = 2048
	type cfg struct {
		code codes.Code
		fail []int
	}
	cfgs := []cfg{
		{rs.Must16(32, 4), []int{0, 7, 18, 33}},
		{rs.Must16(64, 4), []int{3, 20, 41, 66}},
		{rs.Must16(128, 4), []int{0, 64, 100, 131}},
		{lrc.Must16(64, 8, 2), []int{5, 40}},
		{crs.Must16(64, 4), []int{1, 30, 50, 67}},
	}
	for _, c := range cfgs {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			s := MustScheme(c.code, form)
			t.Run(s.Name(), func(t *testing.T) {
				data := makeStripeData(s, size, int64(c.code.N()))
				cells, err := s.EncodeStripe(data)
				if err != nil {
					t.Fatal(err)
				}
				if ok, err := s.VerifyStripe(cells); err != nil || !ok {
					t.Fatalf("VerifyStripe: ok=%v err=%v", ok, err)
				}

				// Fail FaultTolerance() disks and repair the stripe.
				failed := make(map[int]bool, len(c.fail))
				for _, d := range c.fail {
					failed[d] = true
				}
				broken := make([][]byte, len(cells))
				lay := s.Layout()
				for i := range cells {
					if !failed[lay.Disk(0, i%s.N())] {
						broken[i] = cells[i]
					}
				}
				if err := s.ReconstructStripe(broken); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(broken[i], cells[i]) {
						t.Fatalf("cell %d mismatch after repair", i)
					}
				}

				// Degraded read across the whole stripe with one disk down.
				plan, err := s.PlanDegradedRead(0, s.DataPerStripe(), c.fail[:1])
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range plan.Reads {
					if r.Disk == c.fail[0] {
						t.Fatalf("plan reads failed disk %d", c.fail[0])
					}
				}
				degraded := make([][]byte, len(cells))
				for i := range cells {
					if lay.Disk(0, i%s.N()) != c.fail[0] {
						degraded[i] = cells[i]
					}
				}
				for e := 0; e < s.DataPerStripe(); e++ {
					got, err := s.RebuildData(degraded, e)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, data[e]) {
						t.Fatalf("degraded read of element %d wrong", e)
					}
				}
			})
		}
	}
}

// TestWideStripeChunkedEncode checks byte-range chunking stays correct for
// 2-byte-symbol positional codes: chunk boundaries land on multiples of
// chunkAlign (16), which never splits a GF(2^16) symbol, so the chunked
// encode must be bit-identical to the whole-shard encode.
func TestWideStripeChunkedEncode(t *testing.T) {
	s := MustScheme(rs.Must16(32, 4), layout.FormECFRM)
	pc := s.NewParallelCodec(4)
	pc.SetChunkBytes(48) // force many chunks; rounds to chunkAlign
	const size = 4096 + 32
	var bufs Buffers
	data := makeStripeData(s, size, 99)
	want, err := s.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([][]byte, s.CellsPerStripe())
	if err := pc.EncodeStripeChunked(&bufs, cells, data); err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !bytes.Equal(cells[i], want[i]) {
			t.Fatalf("cell %d differs between chunked and whole-shard encode", i)
		}
	}
}

// TestSchemeSymbolBytes checks the symbol width each scheme reports — what
// stores and benchmarks use to align shard sizes.
func TestSchemeSymbolBytes(t *testing.T) {
	for _, tc := range []struct {
		code codes.Code
		want int
	}{
		{rs.Must(6, 3), 1},
		{crs.Must(4, 2), 8},
		{rs.Must16(32, 4), 2},
		{lrc.Must16(32, 4, 2), 2},
		{crs.Must16(8, 3), 16},
	} {
		s := MustScheme(tc.code, layout.FormStandard)
		if got := s.SymbolBytes(); got != tc.want {
			t.Errorf("%s: SymbolBytes = %d, want %d", s.Name(), got, tc.want)
		}
	}
}

// TestZeroAllocSteadyState16 is the GF(2^16) twin of TestZeroAllocSteadyState:
// once the Buffers arena, the scratch pools, the kernel table cache, and the
// decode-coefficient cache are warm, the pooled wide-stripe encode,
// reconstruct, and degraded-rebuild paths must allocate nothing.
func TestZeroAllocSteadyState16(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocs/op cannot be 0")
	}
	const size = 4096
	for _, c := range []codes.Code{rs.Must16(32, 4), lrc.Must16(32, 4, 2)} {
		s := MustScheme(c, layout.FormECFRM)
		var bufs Buffers
		data := makeStripeData(s, size, 7)
		cells := make([][]byte, s.CellsPerStripe())

		// Warm-up: fill pools, build kernel tables, populate the
		// decode-coefficient cache.
		if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
			t.Fatal(err)
		}
		lost := []int{1, len(cells) - 1}
		idx0 := s.cellIndex(s.lay.DataPos(0))

		check := func(name string, fn func()) {
			t.Helper()
			if avg := testing.AllocsPerRun(20, fn); avg != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", s.Name(), name, avg)
			}
		}
		check("EncodeStripeInto", func() {
			if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
				t.Fatal(err)
			}
		})
		check("ReconstructStripeInto", func() {
			for _, i := range lost {
				bufs.PutShard(cells[i])
				cells[i] = nil
			}
			if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
				t.Fatal(err)
			}
		})
		check("RebuildDataInto", func() {
			bufs.PutShard(cells[idx0])
			cells[idx0] = nil
			if _, err := s.RebuildDataInto(&bufs, cells, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func BenchmarkEncodeStripeWide16(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(rs.Must16(64, 4), layout.FormECFRM)
	var bufs Buffers
	data := makeStripeData(s, size, 1)
	cells := make([][]byte, s.CellsPerStripe())
	if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.DataPerStripe() * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
			b.Fatal(err)
		}
	}
}
