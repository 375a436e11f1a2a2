package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	scheme := core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	srv := NewServer(store.MustNew(scheme, 256))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestPutGetRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(payload)

	resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/song.mp3", payload)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/objects/song.mp3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("payload mismatch")
	}
	if resp.Header.Get("X-Read-Cost") != "1.000" {
		t.Fatalf("read cost header %q, want 1.000", resp.Header.Get("X-Read-Cost"))
	}
	if resp.Header.Get("X-Max-Disk-Load") == "" {
		t.Fatal("missing max-load header")
	}
}

// TestGetContentLength: a GET declares the object's size up front and is
// not sent chunked — a cache fill, a cache hit, and an uncached read alike.
func TestGetContentLength(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 10_000) // well over the 2 KiB net/http sizes on its own
	rand.New(rand.NewSource(2)).Read(payload)
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/big", payload); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	for _, q := range []string{"", "", "?nocache=1"} {
		resp, got := doReq(t, http.MethodGet, ts.URL+"/objects/big"+q, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
			t.Fatalf("GET%s: status %d, byte-identical %v", q, resp.StatusCode, bytes.Equal(got, payload))
		}
		if resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET%s: Content-Length %d, Transfer-Encoding %v; want %d, not chunked",
				q, resp.ContentLength, resp.TransferEncoding, len(payload))
		}
	}
}

func TestObjectErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/objects/missing", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing GET status %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/empty", []byte{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty PUT status %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/", []byte("x")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless PUT status %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/objects/x", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// Duplicate PUT conflicts (append-only).
	doReq(t, http.MethodPut, ts.URL+"/objects/dup", []byte("abc"))
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/objects/dup", []byte("xyz")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate PUT status %d", resp.StatusCode)
	}
}

func TestDegradedReadThroughFailures(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 40_000)
	rand.New(rand.NewSource(2)).Read(payload)
	doReq(t, http.MethodPut, ts.URL+"/objects/data", payload)

	// Fail three disks (the LRC(6,2,2) tolerance).
	for _, d := range []int{0, 4, 9} {
		resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/fail?disk=%d", ts.URL, d), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fail disk %d: %d %s", d, resp.StatusCode, body)
		}
	}
	// A fourth failure must be refused.
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/fail?disk=5", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-tolerance fail status %d", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/objects/data", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("degraded payload mismatch")
	}
	if resp.Header.Get("X-Read-Cost") <= "1.000" && resp.Header.Get("X-Read-Cost") != "1.000" {
		t.Fatalf("degraded read cost header %q", resp.Header.Get("X-Read-Cost"))
	}
	// Recover all three and scrub.
	for _, d := range []int{0, 4, 9} {
		resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d", ts.URL, d), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recover disk %d: %d %s", d, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "elements read") {
			t.Fatalf("recover body %q", body)
		}
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+"/admin/scrub", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub status %d", resp.StatusCode)
	}
	var scrub map[string][]int
	if err := json.Unmarshal(body, &scrub); err != nil {
		t.Fatal(err)
	}
	if len(scrub["corrupt_stripes"]) != 0 {
		t.Fatalf("scrub found %v", scrub["corrupt_stripes"])
	}
}

func TestStatus(t *testing.T) {
	ts, _ := newTestServer(t)
	doReq(t, http.MethodPut, ts.URL+"/objects/a", []byte("hello world"))
	resp, body := doReq(t, http.MethodGet, ts.URL+"/admin/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "EC-FRM-LRC(6,2,2)" || st.Disks != 10 || st.FaultTolerance != 3 {
		t.Fatalf("status wrong: %+v", st)
	}
	if st.Objects != 1 || st.Stripes < 1 || st.Bytes != 11 {
		t.Fatalf("counters wrong: %+v", st)
	}
	if len(st.DeviceWrites) != 10 || st.DeviceWrites[0] == 0 {
		t.Fatalf("device writes wrong: %v", st.DeviceWrites)
	}
}

func TestAdminParamValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, url := range []string{
		ts.URL + "/admin/fail",
		ts.URL + "/admin/fail?disk=abc",
		ts.URL + "/admin/fail?disk=10",
		ts.URL + "/admin/recover?disk=-1",
	} {
		if resp, _ := doReq(t, http.MethodPost, url, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
	// Recovering a healthy disk is a 400.
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/recover?disk=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("healthy recover status %d", resp.StatusCode)
	}
	// Wrong methods.
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/admin/fail?disk=1", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("GET on fail must be 405")
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/status", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("POST on status must be 405")
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/admin/scrub", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("GET on scrub must be 405")
	}
}

func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(3)).Read(payload)
	doReq(t, http.MethodPut, ts.URL+"/objects/shared", payload)

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, body := func() (*http.Response, []byte) {
					resp, err := http.Get(ts.URL + "/objects/shared")
					if err != nil {
						errs <- err
						return nil, nil
					}
					defer resp.Body.Close()
					b, _ := io.ReadAll(resp.Body)
					return resp, b
				}()
				if resp == nil {
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
					errs <- fmt.Errorf("goroutine %d: bad read status=%d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCorruptionInjectionAndHealing(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 8000)
	rand.New(rand.NewSource(5)).Read(payload)
	doReq(t, http.MethodPut, ts.URL+"/objects/x", payload)

	// Inject silent corruption into a data cell.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/admin/corrupt?stripe=0&row=0&col=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt: %d %s", resp.StatusCode, body)
	}
	// Checksums report it.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/admin/checksums", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checksums: %d", resp.StatusCode)
	}
	var rep map[string]any
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["count"].(float64) != 1 {
		t.Fatalf("checksum count = %v, want 1", rep["count"])
	}
	// Reading the object heals it transparently.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/objects/x", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatal("healing read failed")
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/admin/checksums", nil)
	json.Unmarshal(body, &rep)
	if rep["count"].(float64) != 0 {
		t.Fatalf("corruption not healed: %v", rep["count"])
	}
	// Parameter validation.
	for _, q := range []string{"", "stripe=0&row=0", "stripe=99&row=0&col=0", "stripe=0&row=0&col=99"} {
		if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/corrupt?"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("corrupt?%s status %d, want 400", q, resp.StatusCode)
		}
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/admin/checksums", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("POST checksums must be 405")
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/admin/corrupt?stripe=0&row=0&col=0", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Error("GET corrupt must be 405")
	}
}

// TestConcurrentChaos hammers the server with overlapping PUTs, GETs,
// failure injection, and recovery from many goroutines. Run under -race it
// checks the sharded locking: any interleaving must keep every successful
// GET byte-identical to its PUT, and the failed-disk set within tolerance.
func TestConcurrentChaos(t *testing.T) {
	ts, srv := newTestServer(t)
	rng := rand.New(rand.NewSource(11))

	// Seed a set of objects whose contents every reader can verify.
	const objects = 8
	payloads := make([][]byte, objects)
	for i := range payloads {
		payloads[i] = make([]byte, 1+rng.Intn(4096))
		rng.Read(payloads[i])
		resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/objects/chaos%d", ts.URL, i), payloads[i])
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed put %d: %d %s", i, resp.StatusCode, body)
		}
	}

	tol := srv.store.Scheme().FaultTolerance()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Readers: every 200 must return the exact payload.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				oi := rng.Intn(objects)
				req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/objects/chaos%d", ts.URL, oi), nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					report("get: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, payloads[oi]) {
						report("chaos%d: got %d bytes, want %d", oi, len(body), len(payloads[oi]))
						return
					}
				case http.StatusServiceUnavailable:
					// Transiently unrecoverable while disks cycle: allowed.
				default:
					report("get chaos%d: status %d", oi, resp.StatusCode)
					return
				}
			}
		}(int64(100 + g))
	}

	// Writers: fresh names so they never conflict with the verified set.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + id)))
			for i := 0; i < 10; i++ {
				data := make([]byte, 1+rng.Intn(2048))
				rng.Read(data)
				resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/objects/w%d-%d", ts.URL, id, i), data)
				if resp.StatusCode != http.StatusCreated {
					report("writer put: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	// Chaos agents: fail and recover random disks. Any status the server
	// chooses is fine (409 at tolerance, 400/503 racing recover) — the
	// invariant is that failures never exceed tolerance.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := srv.store.Scheme().N()
			for i := 0; i < 20; i++ {
				d := rng.Intn(n)
				if rng.Intn(2) == 0 {
					doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/fail?disk=%d", ts.URL, d), nil)
				} else {
					doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d", ts.URL, d), nil)
				}
				if failed := len(srv.store.FailedDisks()); failed > tol {
					report("%d disks failed, tolerance %d", failed, tol)
					return
				}
			}
		}(int64(300 + g))
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Settle: recover everything and verify all objects come back clean.
	for _, d := range srv.store.FailedDisks() {
		if resp, body := doReq(t, http.MethodPost, fmt.Sprintf("%s/admin/recover?disk=%d", ts.URL, d), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("settle recover %d: %d %s", d, resp.StatusCode, body)
		}
	}
	for i, want := range payloads {
		resp, body := doReq(t, http.MethodGet, fmt.Sprintf("%s/objects/chaos%d", ts.URL, i), nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("post-chaos read chaos%d: status %d", i, resp.StatusCode)
		}
	}
}
