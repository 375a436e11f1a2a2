package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// wideGrid is the GF(2^16) wide-stripe sweep the store end-to-end tests
// cover: stripes of k=32/64 data elements, widths no GF(2^8) code reaches.
// Element sizes respect each scheme's SymbolBytes (2 for the matrix codes,
// 16 for packet-layout CRS16); store.New rejects any that do not.
func wideGrid(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	for cname, c := range map[string]codes.Code{
		"rs16-64":  rs.Must16(64, 4),
		"lrc16-32": lrc.Must16(32, 4, 2),
		"crs16-32": crs.Must16(32, 3),
	} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// TestNewRejectsPartialSymbols checks that a store refuses, up front, an
// element size its code cannot encode, instead of accepting appends and
// failing at the first flush. The rejection covers the file-backed and
// remote constructors too, since both go through New.
func TestNewRejectsPartialSymbols(t *testing.T) {
	for _, tc := range []struct {
		code       codes.Code
		bad, valid int
	}{
		{rs.Must16(32, 4), 3, 4},
		{crs.Must(4, 2), 6, 8},
		{crs.Must16(8, 3), 8, 16},
	} {
		scheme := core.MustScheme(tc.code, layout.FormECFRM)
		if _, err := New(scheme, tc.bad); err == nil {
			t.Errorf("%s: New accepted element size %d", scheme.Name(), tc.bad)
		}
		if _, _, err := OpenFileBacked(scheme, tc.bad, FileConfig{Dir: t.TempDir()}); err == nil {
			t.Errorf("%s: OpenFileBacked accepted element size %d", scheme.Name(), tc.bad)
		}
		if _, err := New(scheme, tc.valid); err != nil {
			t.Errorf("%s: element size %d: %v", scheme.Name(), tc.valid, err)
		}
	}
}

// TestWideStripeStoreEndToEnd proves the wide-stripe hot path through the
// full store: append, seal, flush, normal reads, in-tolerance disk failures
// with degraded reads, and the fan-out executor — all at k=32/64 where the
// GF(2^16) kernels carry every encode and rebuild. Runs under -race via
// `make race-io`.
func TestWideStripeStoreEndToEnd(t *testing.T) {
	for name, scheme := range wideGrid(t) {
		t.Run(name, func(t *testing.T) {
			const elem = 64 // multiple of every SymbolBytes in the grid
			st := MustNew(scheme, elem)
			st.SetRetryPolicy(200*time.Microsecond, 2)
			rng := rand.New(rand.NewSource(int64(len(name))))
			payload := make([]byte, 3*scheme.DataPerStripe()*elem+elem/2)
			rng.Read(payload)
			if err := st.Append(payload); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			// Normal reads across random ranges.
			for trial := 0; trial < 12; trial++ {
				off := rng.Intn(len(payload) - 1)
				ln := 1 + rng.Intn(len(payload)-off)
				res, err := st.ReadAt(int64(off), ln)
				if err != nil {
					t.Fatalf("normal read [%d,%d): %v", off, off+ln, err)
				}
				if !bytes.Equal(res.Data, payload[off:off+ln]) {
					t.Fatalf("normal read [%d,%d): wrong bytes", off, off+ln)
				}
			}

			// Fail FaultTolerance() disks; every read must still return the
			// exact payload, via sequential and fan-out executors alike.
			for i := 0; i < scheme.FaultTolerance(); i++ {
				st.FailDiskWithinTolerance(rng.Intn(scheme.N()))
			}
			optsList := []ReadOptions{
				{Sequential: true},
				{},
				{Concurrency: 4},
				{Concurrency: 8, Hedge: HedgeConfig{Enabled: true, Quantile: 0.9, Min: 5 * time.Millisecond}},
			}
			for trial := 0; trial < 12; trial++ {
				off := rng.Intn(len(payload) - 1)
				ln := 1 + rng.Intn(len(payload)-off)
				opts := optsList[trial%len(optsList)]
				res, err := st.ReadAtCtx(context.Background(), int64(off), ln, opts)
				if err != nil {
					t.Fatalf("degraded read [%d,%d) opts %+v: %v", off, off+ln, opts, err)
				}
				if !bytes.Equal(res.Data, payload[off:off+ln]) {
					t.Fatalf("degraded read [%d,%d) opts %+v: wrong bytes", off, off+ln, opts)
				}
			}

			// Full disk recovery brings the store back to verifying clean.
			for _, d := range st.FailedDisks() {
				if _, err := st.RecoverDisk(d); err != nil {
					t.Fatalf("recover disk %d: %v", d, err)
				}
			}
			res, err := st.ReadAt(0, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Data, payload) {
				t.Fatal("payload mismatch after repair")
			}
		})
	}
}
