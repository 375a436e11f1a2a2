package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/nodeapi"
	"repro/internal/obs"
)

// newTestRemoteCell points a remoteCell at a stub node.
func newTestRemoteCell(t *testing.T, h http.HandlerFunc, elem int) (*remoteCell, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	nc := newNodeClient(0, srv.URL, time.Second, obs.NewRegistry())
	return &remoteCell{nc: nc, group: 0, disk: 0, elem: elem}, srv
}

// TestRemoteCellReadRunFraming: the client takes exactly the frame it asked
// for and rejects every reply that is shorter, longer, or declares the wrong
// length, chunked or not.
func TestRemoteCellReadRunFraming(t *testing.T) {
	const elem, count = 16, 3
	data := bytes.Repeat([]byte("0123456789abcdef"), count)
	frame := nodeapi.EncodeRun(elem, data, []uint32{1, 2, 3})

	cases := map[string]struct {
		body          []byte
		contentLength int // <0: chunked
		ok            bool
	}{
		"exact":                  {frame, len(frame), true},
		"exact chunked":          {frame, -1, true},
		"truncated chunked":      {frame[:len(frame)-5], -1, false},
		"over-long chunked":      {append(append([]byte(nil), frame...), 'x'), -1, false},
		"short declared length":  {frame[:len(frame)-5], len(frame) - 5, false},
		"long declared length":   {append(append([]byte(nil), frame...), 'x'), len(frame) + 1, false},
		"frame for other count":  {nodeapi.EncodeRun(elem, data[:elem], []uint32{1}), -1, false},
		"body cut under its own": {frame[:len(frame)-5], len(frame), false},
	}
	for name, c := range cases {
		c := c
		rc, _ := newTestRemoteCell(t, func(w http.ResponseWriter, r *http.Request) {
			if c.contentLength >= 0 {
				w.Header().Set("Content-Length", strconv.Itoa(c.contentLength))
			}
			w.WriteHeader(http.StatusOK)
			w.Write(c.body)
			if f, ok := w.(http.Flusher); ok && c.contentLength < 0 {
				f.Flush()
			}
		}, elem)
		got, crcs, err := rc.ReadRun(0, count)
		if c.ok {
			if err != nil || !bytes.Equal(got, data) || len(crcs) != count {
				t.Fatalf("%s: err %v, %d bytes, %d crcs", name, err, len(got), len(crcs))
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: bad reply accepted", name)
		}
		if rc.nc.errs.Value() != 1 {
			t.Fatalf("%s: node error counter = %d, want 1", name, rc.nc.errs.Value())
		}
	}
}

// TestRemoteCellWriteRunFrame: a PUT carries exactly the EncodeRun frame
// with its Content-Length, though it is sent as header plus payload.
func TestRemoteCellWriteRunFrame(t *testing.T) {
	const elem = 8
	data := []byte("cell-one" + "cell-two")
	crcs := []uint32{0xdeadbeef, 7}
	var got []byte
	var gotLen int64
	rc, _ := newTestRemoteCell(t, func(w http.ResponseWriter, r *http.Request) {
		gotLen = r.ContentLength
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusNoContent)
	}, elem)
	if err := rc.WriteRun(4, data, crcs); err != nil {
		t.Fatal(err)
	}
	want := nodeapi.EncodeRun(elem, data, crcs)
	if !bytes.Equal(got, want) || gotLen != int64(len(want)) {
		t.Fatalf("PUT body %d bytes (Content-Length %d), want the %d-byte EncodeRun frame",
			len(got), gotLen, len(want))
	}
}

// TestNodeClientEWMAIgnoresFailures: a request that gets no response (a
// refused dial to a dead node) must not drag the latency EWMA toward zero.
func TestNodeClientEWMAIgnoresFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	nc := newNodeClient(0, srv.URL, time.Second, obs.NewRegistry())
	send := func() error {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		resp, err := nc.do(req)
		if err == nil {
			drainClose(resp)
		}
		return err
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	live := nc.ewmaNanos.Load()
	if live < int64(2*time.Millisecond) {
		t.Fatalf("EWMA %v after a 2ms request", time.Duration(live))
	}
	srv.Close()
	for i := 0; i < 20; i++ {
		if err := send(); err == nil {
			t.Fatal("request to a closed node succeeded")
		}
	}
	if got := nc.ewmaNanos.Load(); got != live {
		t.Fatalf("EWMA moved from %v to %v on failed requests", time.Duration(live), time.Duration(got))
	}
	if got := nc.errs.Value(); got != 20 {
		t.Fatalf("errors = %d, want 20", got)
	}
}
