package datanode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

func frame(elem int, cells ...[]byte) []byte {
	var data []byte
	var crcs []uint32
	for _, c := range cells {
		data = append(data, c...)
		crcs = append(crcs, crc32.Checksum(c, castagnoli))
	}
	return nodeapi.EncodeRun(elem, data, crcs)
}

// TestNodeCellRoundTrip drives the wire protocol end to end: write a run,
// read it back (whole and sub-ranges), sync, meta, status, truncate, and the
// missing-cell marker.
func TestNodeCellRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := Config{ElemSize: 64, Registry: obs.NewRegistry()}
			if backend == "file" {
				cfg.Dir = t.TempDir()
				cfg.File = store.FileConfig{Fsync: store.FsyncNever}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			cells := [][]byte{
				bytes.Repeat([]byte{0xaa}, 64),
				bytes.Repeat([]byte{0xbb}, 64),
				bytes.Repeat([]byte{0xcc}, 64),
			}
			if rec := do(t, s, http.MethodPut, "/cells/2/1?slot=4", frame(64, cells...)); rec.Code != http.StatusNoContent {
				t.Fatalf("write run: %d %s", rec.Code, rec.Body.String())
			}
			rec := do(t, s, http.MethodGet, "/cells/2/1?slot=4&count=3", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("read run: %d %s", rec.Code, rec.Body.String())
			}
			data, crcs, err := nodeapi.DecodeRun(rec.Body.Bytes(), 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(crcs) != 3 || !bytes.Equal(data, bytes.Join(cells, nil)) {
				t.Fatal("read run returned wrong cells")
			}
			// Checksums came back verbatim.
			for i, c := range cells {
				if crcs[i] != crc32.Checksum(c, castagnoli) {
					t.Fatalf("cell %d crc mismatch", i)
				}
			}

			// A slot never stored → 404 with the missing marker.
			rec = do(t, s, http.MethodGet, "/cells/2/1?slot=100&count=1", nil)
			if rec.Code != http.StatusNotFound || rec.Header().Get(nodeapi.MissingHeader) == "" {
				t.Fatalf("missing cell: %d, header %q", rec.Code, rec.Header().Get(nodeapi.MissingHeader))
			}
			// An extent never written → same marker.
			rec = do(t, s, http.MethodGet, "/cells/9/0?slot=0&count=1", nil)
			if rec.Code != http.StatusNotFound || rec.Header().Get(nodeapi.MissingHeader) == "" {
				t.Fatalf("missing extent: %d", rec.Code)
			}

			if rec := do(t, s, http.MethodPost, "/sync/2/1", nil); rec.Code != http.StatusNoContent {
				t.Fatalf("sync: %d", rec.Code)
			}

			rec = do(t, s, http.MethodGet, "/cells/2/1/meta", nil)
			var meta nodeapi.DiskMeta
			if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
				t.Fatal(err)
			}
			if meta.Slots != 7 || meta.Elements != 3 {
				t.Fatalf("meta = %+v, want slots 7 elements 3", meta)
			}

			var st nodeapi.NodeStatus
			rec = do(t, s, http.MethodGet, nodeapi.StatusPath, nil)
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Backend != backend || len(st.Disks) != 1 {
				t.Fatalf("status = %+v", st)
			}

			if rec := do(t, s, http.MethodPost, "/truncate/2/1?slots=5", nil); rec.Code != http.StatusNoContent {
				t.Fatalf("truncate: %d", rec.Code)
			}
			rec = do(t, s, http.MethodGet, "/cells/2/1?slot=6&count=1", nil)
			if rec.Code != http.StatusNotFound {
				t.Fatalf("read past truncation: %d", rec.Code)
			}
			rec = do(t, s, http.MethodGet, "/cells/2/1?slot=4&count=1", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("read below truncation: %d", rec.Code)
			}
		})
	}
}

// TestNodeRestartRediscovers proves a file-backed node reopened on the same
// directory serves its sealed cells again.
func TestNodeRestartRediscovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ElemSize: 32, Dir: dir, File: store.FileConfig{Fsync: store.FsyncNever}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := bytes.Repeat([]byte{0x5a}, 32)
	if rec := do(t, s, http.MethodPut, "/cells/0/3?slot=0", frame(32, cell)); rec.Code != http.StatusNoContent {
		t.Fatalf("write: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/sync/0/3", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("sync: %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := do(t, s2, http.MethodGet, "/cells/0/3?slot=0&count=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read after restart: %d %s", rec.Code, rec.Body.String())
	}
	data, _, err := nodeapi.DecodeRun(rec.Body.Bytes(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, cell) {
		t.Fatal("restarted node returned wrong bytes")
	}
}

// TestNodeHealthEndpoints covers the liveness/readiness pair.
func TestNodeHealthEndpoints(t *testing.T) {
	s, err := New(Config{ElemSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := do(t, s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	s.SetDraining(true)
	if rec := do(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz draining: %d", rec.Code)
	}
}

// TestReadRunStreamedFrame: over real HTTP, a cell-run reply is the exact
// EncodeRun frame of the stored cells, sent with its Content-Length and not
// chunked, across run lengths and element sizes on both backends.
func TestReadRunStreamedFrame(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		for _, elem := range []int{1, 512, 4096} {
			cfg := Config{ElemSize: elem}
			if backend == "file" {
				cfg.Dir = t.TempDir()
				cfg.File = store.FileConfig{Fsync: store.FsyncNever}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(s)
			const stored = 40
			cells := make([][]byte, stored)
			for i := range cells {
				cells[i] = bytes.Repeat([]byte{byte(i*7 + elem)}, elem)
			}
			if rec := do(t, s, http.MethodPut, "/cells/0/3?slot=0", frame(elem, cells...)); rec.Code != http.StatusNoContent {
				t.Fatalf("%s elem %d: write run: %d %s", backend, elem, rec.Code, rec.Body.String())
			}
			for _, count := range []int{1, 2, 7, 33} {
				const slot = 5
				resp, err := http.Get(fmt.Sprintf("%s/cells/0/3?slot=%d&count=%d", srv.URL, slot, count))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s elem %d count %d: %d %v", backend, elem, count, resp.StatusCode, err)
				}
				want := frame(elem, cells[slot:slot+count]...)
				if !bytes.Equal(body, want) {
					t.Fatalf("%s elem %d count %d: streamed frame differs from EncodeRun", backend, elem, count)
				}
				if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
					t.Fatalf("%s elem %d count %d: Content-Length %d, Transfer-Encoding %v; want %d, none",
						backend, elem, count, resp.ContentLength, resp.TransferEncoding, len(want))
				}
			}
			srv.Close()
			s.Close()
		}
	}
}

// TestReadRunCountBounded: a read's count cannot size a node allocation. A
// run over nodeapi.MaxRunCells is refused with 413 like an oversized write, and a
// run past the stored extent is a missing-cell 404 without a buffer for
// count cells ever being made.
func TestReadRunCountBounded(t *testing.T) {
	const elem = 64
	s, err := New(Config{ElemSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := do(t, s, http.MethodPut, "/cells/0/0?slot=0", frame(elem, make([]byte, elem))); rec.Code != http.StatusNoContent {
		t.Fatalf("write run: %d", rec.Code)
	}
	over := nodeapi.MaxRunCells(elem) + 1
	if rec := do(t, s, http.MethodGet, fmt.Sprintf("/cells/0/0?slot=0&count=%d", over), nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("count %d: status %d, want 413", over, rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/cells/0/0?slot=0&count=9223372036854775807", nil); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("max-int count: status %d, want 413", rec.Code)
	}

	// The largest legal run over a one-cell extent: missing, and cheap.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := do(t, s, http.MethodGet, fmt.Sprintf("/cells/0/0?slot=0&count=%d", over-1), nil)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusNotFound || rec.Header().Get(nodeapi.MissingHeader) == "" {
		t.Fatalf("run past extent: status %d, want missing 404", rec.Code)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("run past extent allocated %d bytes", grew)
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body, so an
// allocation count sees only what the handler itself allocates.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestReadRunSteadyStateAllocs is the node's allocation gate: once the read
// arena is warm, serving GET /cells for a 4-cell run of 64 KiB cells
// allocates under 5% of the payload per request, on both backends — the run
// buffer goes back to the arena once the reply is written.
func TestReadRunSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocation is not steady")
	}
	const elem, count = 64 << 10, 4
	for _, backend := range []string{"mem", "file"} {
		cfg := Config{ElemSize: elem}
		if backend == "file" {
			cfg.Dir = t.TempDir()
			cfg.File = store.FileConfig{Fsync: store.FsyncNever}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([][]byte, 8)
		for i := range cells {
			cells[i] = bytes.Repeat([]byte{byte(i + 1)}, elem)
		}
		if rec := do(t, s, http.MethodPut, "/cells/0/0?slot=0", frame(elem, cells...)); rec.Code != http.StatusNoContent {
			t.Fatalf("%s: write run: %d", backend, rec.Code)
		}
		w := &discardWriter{h: make(http.Header)}
		get := func() {
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/cells/0/0?slot=2&count=%d", count), nil))
		}
		for i := 0; i < 10; i++ {
			get()
		}
		const reqs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reqs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		perReq := float64(after.TotalAlloc-before.TotalAlloc) / reqs
		t.Logf("%s: %.0f bytes allocated per %d-byte run", backend, perReq, count*elem)
		if perReq > 0.05*count*elem {
			t.Errorf("%s: %.0f bytes allocated per %d-byte run, want under 5%%", backend, perReq, count*elem)
		}
		if rec := do(t, s, http.MethodGet, fmt.Sprintf("/cells/0/0?slot=2&count=%d", count), nil); !bytes.Equal(rec.Body.Bytes(), frame(elem, cells[2:2+count]...)) {
			t.Fatalf("%s: reply differs from the stored run", backend)
		}
		s.Close()
	}
}
