package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/crs"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// makeStripeData builds DataPerStripe deterministic shards of the given size.
func makeStripeData(s *Scheme, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, s.DataPerStripe())
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

// TestIntoPathsMatchAllocatingPaths checks the pooled ...Into variants
// produce bit-identical stripes to the legacy allocating paths, across
// codes (including packet-layout CRS via its EncodeInto) and layouts.
func TestIntoPathsMatchAllocatingPaths(t *testing.T) {
	const size = 96 // multiple of crs.W
	codesUnder := []codes.Code{rs.Must(6, 3), lrc.Must(6, 2, 2), crs.Must(4, 2)}
	for _, c := range codesUnder {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			s := MustScheme(c, form)
			t.Run(s.Name(), func(t *testing.T) {
				var bufs Buffers
				data := makeStripeData(s, size, 42)
				want, err := s.EncodeStripe(data)
				if err != nil {
					t.Fatal(err)
				}
				cells := make([][]byte, s.CellsPerStripe())
				if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(cells[i], want[i]) {
						t.Fatalf("cell %d differs between EncodeStripeInto and EncodeStripe", i)
					}
				}

				// Knock out two cells and repair via the pooled path.
				lost := []int{0, len(cells) / 2}
				for _, i := range lost {
					cells[i] = nil
				}
				if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
					t.Fatal(err)
				}
				for i := range cells {
					if !bytes.Equal(cells[i], want[i]) {
						t.Fatalf("cell %d differs after ReconstructStripeInto", i)
					}
				}

				// Degraded single-element rebuild via the pooled path.
				idx := s.cellIndex(s.lay.DataPos(0))
				cells[idx] = nil
				got, err := s.RebuildDataInto(&bufs, cells, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data[0]) {
					t.Fatal("RebuildDataInto returned wrong data")
				}
			})
		}
	}
}

// TestZeroAllocSteadyState asserts the pooled encode/reconstruct/rebuild
// paths allocate nothing once the Buffers arena and scratch pools are warm —
// the regression gate for the zero-allocation hot path.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocs/op cannot be 0")
	}
	const size = 4096
	for _, c := range []codes.Code{rs.Must(6, 3), lrc.Must(6, 2, 2)} {
		s := MustScheme(c, layout.FormECFRM)
		var bufs Buffers
		data := makeStripeData(s, size, 7)
		cells := make([][]byte, s.CellsPerStripe())

		// Warm-up: fill pools, populate the decode-coefficient cache.
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

// TestBuffersRecycle checks the arena actually reuses memory and self-heals
// across size changes.
func TestBuffersRecycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so recycling is not deterministic")
	}
	var b Buffers
	same := func(x, y []byte) bool { return &x[:1][0] == &y[:1][0] }

	// A fresh buffer carries its whole class's capacity, and is reused for
	// any request in that class (65..128 bytes is class 7).
	s1 := b.GetShard(100)
	if len(s1) != 100 || cap(s1) != 128 {
		t.Fatalf("GetShard(100): len %d cap %d, want 100 and 128", len(s1), cap(s1))
	}
	b.PutShard(s1)
	for _, n := range []int{65, 128, 100} {
		s := b.GetShard(n)
		if len(s) != n || !same(s, s1) {
			t.Fatalf("GetShard(%d): len %d, reused %v; want the pooled class-7 buffer", n, len(s), same(s, s1))
		}
		b.PutShard(s)
	}

	// A request of the next class up is never handed the shorter buffer.
	s2 := b.GetShard(129)
	if len(s2) != 129 || cap(s2) < 129 || same(s2, s1) {
		t.Fatalf("GetShard(129): len %d cap %d, reused the 128-byte buffer %v", len(s2), cap(s2), same(s2, s1))
	}

	// Mixed sizes do not evict each other: each class keeps its own buffer.
	b.PutShard(s2)
	if s := b.GetShard(128); !same(s, s1) {
		t.Fatal("class 7 lost its buffer when class 8 was filled")
	}
	if s := b.GetShard(256); !same(s, s2) {
		t.Fatal("class 8 lost its buffer")
	}

	// A foreign buffer files under ⌊log2 cap⌋ and serves only requests it
	// covers: cap 200 is class 7, so it serves 128 bytes, never 129.
	foreign := make([]byte, 200)
	b.PutShard(foreign)
	if s := b.GetShard(129); same(s, foreign) {
		t.Fatal("a 200-byte buffer served a 256-byte class")
	}
	if s := b.GetShard(128); !same(s, foreign) || len(s) != 128 {
		t.Fatal("a 200-byte buffer was not reused for a 128-byte request")
	}

	if s := b.GetShard(0); len(s) != 0 {
		t.Fatalf("GetShard(0) = %d bytes", len(s))
	}
	cells := [][]byte{[]byte{1}, nil, []byte{2, 3}}
	b.PutShards(cells)
	for i, c := range cells {
		if c != nil {
			t.Fatalf("PutShards left slot %d non-nil", i)
		}
	}
}

func BenchmarkEncodeStripePooled(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(rs.Must(6, 3), layout.FormECFRM)
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

func BenchmarkReconstructStripePooled(b *testing.B) {
	const size = 64 << 10
	s := MustScheme(rs.Must(6, 3), layout.FormECFRM)
	var bufs Buffers
	data := makeStripeData(s, size, 2)
	cells := make([][]byte, s.CellsPerStripe())
	if err := s.EncodeStripeInto(&bufs, cells, data); err != nil {
		b.Fatal(err)
	}
	lost := []int{0, len(cells) / 2}
	b.SetBytes(int64(len(lost) * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range lost {
			bufs.PutShard(cells[x])
			cells[x] = nil
		}
		if err := s.ReconstructStripeInto(&bufs, cells); err != nil {
			b.Fatal(err)
		}
	}
}
