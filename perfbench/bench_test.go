package main

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeDaemon serves the object API with one misbehaviour per object name:
// "ok" returns the stored bytes, "wrong" flips one byte, "short" drops the
// second half, "busy" answers 503, and anything else 404 — which, for a name
// the daemon acked with 201, is a lost object.
func fakeDaemon(t *testing.T, stored map[string][]byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/objects/")
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte("stored 1 bytes at offset 0\n"))
			return
		}
		body, ok := stored[name]
		switch {
		case !ok || strings.HasPrefix(name, "gone"):
			http.Error(w, "no such object", http.StatusNotFound)
		case strings.HasPrefix(name, "busy"):
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		case strings.HasPrefix(name, "wrong"):
			b := append([]byte(nil), body...)
			b[len(b)/2] ^= 0xff
			w.Write(b)
		case strings.HasPrefix(name, "short"):
			w.Write(body[:len(body)/2])
		default:
			w.Write(body)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// benchOver builds a Bench whose seeded set is objs, pointed at base.
func benchOver(base string, objs []Object) *Bench {
	b := &Bench{W: workloads["read-cold"], Set: objs}
	for _, o := range objs {
		b.Payloads = append(b.Payloads, payload(o))
	}
	for c := 0; c < clients; c++ {
		b.clients = append(b.clients, NewClient(base))
	}
	return b
}

func TestFailedOpsCount(t *testing.T) {
	var objs []Object
	stored := map[string][]byte{}
	for i, name := range []string{"ok", "wrong", "short", "busy"} {
		o := Object{Name: name, Size: 3 * 1024, ID: uint64(i + 1), Cells: 1}
		objs = append(objs, o)
		stored[name] = payload(o)
	}
	srv := fakeDaemon(t, stored)
	b := benchOver(srv.URL, objs)
	defer b.Close()
	ctx := context.Background()

	for key, o := range objs {
		r := b.get(ctx, 0, key, false)
		if wantOK := o.Name == "ok"; (r.Err == nil) != wantOK {
			t.Errorf("GET %s: err = %v, want failure %v", o.Name, r.Err, !wantOK)
		}
		if r.Err != nil && !math.IsInf(r.Ms, 1) {
			t.Errorf("GET %s failed but latency is %v, want +Inf", o.Name, r.Ms)
		}
	}

	// A PUT the daemon acked whose name then GETs 404.
	lost := Object{Name: "gone-1", Size: 1024, ID: 99, Cells: 1}
	b.acked = append(b.acked, ackedPut{Obj: lost})
	ph, err := b.VerifyAcked(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	tl.add(ph)
	if tl.attempted != 1 || tl.failed != 1 {
		t.Errorf("verify of a lost acked name: %d attempted, %d failed; want 1, 1", tl.attempted, tl.failed)
	}
	var oe *OpError
	if r := ph.Recs[0]; !errors.As(r.Err, &oe) || oe.Status != http.StatusNotFound {
		t.Errorf("lost name: err = %v, want a 404 OpError", r.Err)
	}
}

func TestRefusedConnectionFails(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here now
	o := Object{Name: "ok", Size: 1024, ID: 1, Cells: 1}
	b := benchOver("http://"+addr, []Object{o})
	defer b.Close()
	r := b.get(context.Background(), 0, 0, false)
	var oe *OpError
	if !errors.As(r.Err, &oe) || oe.Status != 0 {
		t.Fatalf("GET against a closed port: err = %v, want a transport OpError", r.Err)
	}
	ph := Phase{Recs: []Rec{r}}
	if ph.failures() != 1 {
		t.Errorf("failures = %d, want 1", ph.failures())
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, err := Percentile(xs, 0.9)
	if err != nil || q.N != 100 || q.Value != 90 {
		t.Errorf("p90 of 1..100 = %+v, %v; want 90 from 100 samples", q, err)
	}
	if q, err := Percentile(xs, 0.95); err == nil {
		t.Errorf("p95 of 100 samples (5 beyond) = %+v, want refusal", q)
	} else if q.N != 100 {
		t.Errorf("refused p95 reports N = %d, want 100", q.N)
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples: want refusal")
	}
	// Failed ops sit at +Inf and count against the tail.
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	if q, _ := Percentile(xs, 0.9); !math.IsInf(q.Value, 1) {
		t.Errorf("p90 with 20%% failures = %v, want +Inf", q.Value)
	}
}

// TestSliceMedians checks the window's slicing: ops fall into the slice
// they started in, the quieter half is chosen by steal alone (ties in time
// order), and a percentile too thin in most slices is refused.
func TestSliceMedians(t *testing.T) {
	start := time.Unix(1000, 0)
	var recs []Rec
	for i := 0; i < 400; i++ {
		// Slice i/100 of four; slice 3 is slow, each op moves 1 MB.
		ms := 1.0 + float64(i/100)
		if i/100 == 3 {
			ms = 50
		}
		recs = append(recs, Rec{Ms: ms, Bytes: 1e6, Tm: Timing{T0: start.Add(time.Duration(i) * 10 * time.Millisecond)}})
	}
	recs = append(recs, Rec{Ms: 1, Bytes: 1e6, Tm: Timing{T0: start.Add(4 * time.Second)}}) // past the window
	sl := cut(recs, start, 4*time.Second, 4)
	for i, s := range sl {
		if len(s.Recs) != 100 || s.Secs != 1 {
			t.Fatalf("slice %d: %d ops over %gs, want 100 over 1s", i, len(s.Recs), s.Secs)
		}
	}
	sl[0].Steal, sl[1].Steal, sl[2].Steal, sl[3].Steal = 0.2, 0, 0.1, 0
	q := quietHalf(sl)
	if len(q) != 2 || q[0].Recs[0].Ms != 2 || q[1].Recs[0].Ms != 50 {
		t.Fatalf("quietHalf kept slices with p50 %v and %v, want slices 1 and 3 (least steal)", q[0].Recs[0].Ms, q[1].Recs[0].Ms)
	}
	if v, used, err := sliceQuantile(sl, 0.5); err != nil || used != 4 || v.Value != 2.5 || v.N != 400 {
		t.Errorf("median of slice p50s = %+v over %d slices, %v; want 2.5 over 4 from 400", v, used, err)
	}
	if r := sliceMBps(sl); r != 100 {
		t.Errorf("median slice rate = %g MB/s, want 100", r)
	}
	if _, _, err := sliceQuantile(sl, 0.95); err == nil {
		t.Error("p95 of 100-op slices (5 beyond): want refusal")
	}
}

// drawOps takes n ops from each client's stream over seed's seeded set.
func drawOps(w Workload, seed int64, n int) [][]Op {
	set := SeedSet(seed, w.DatasetBytes)
	var out [][]Op
	for c := 0; c < clients; c++ {
		s := NewOpStream(w, seed, c, set)
		var ops []Op
		for i := 0; i < n; i++ {
			ops = append(ops, s.Next())
		}
		out = append(out, ops)
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for name, w := range workloads {
		set1, set2 := SeedSet(7, w.DatasetBytes), SeedSet(7, w.DatasetBytes)
		if !reflect.DeepEqual(set1, set2) {
			t.Errorf("%s: seeded sets differ for one seed", name)
		}
		ops1, ops2 := drawOps(w, 7, 500), drawOps(w, 7, 500)
		if !reflect.DeepEqual(ops1, ops2) {
			t.Errorf("%s: op sequences differ for one seed", name)
		}
		if reflect.DeepEqual(ops1, drawOps(w, 8, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
		if p1, p2 := payload(set1[0]), payload(set2[0]); !reflect.DeepEqual(p1, p2) {
			t.Errorf("%s: payload of %s differs for one seed", name, set1[0].Name)
		}
	}
	ops := drawOps(workloads["mixed-hot"], 7, 2000)
	puts := 0
	for _, op := range ops[0] {
		if op.Kind == OpPut {
			puts++
			if op.Obj.Cells < 1 || op.Obj.Cells > 20 || op.Obj.Size != op.Obj.Cells*cellBytes {
				t.Fatalf("PUT %s: %d cells, %d bytes", op.Obj.Name, op.Obj.Cells, op.Obj.Size)
			}
		}
	}
	if puts < 400 || puts > 600 {
		t.Errorf("mixed-hot: %d PUTs in 2000 ops, want about 25%%", puts)
	}
}

func TestParseExpositionAndPlacement(t *testing.T) {
	sc, err := parseExposition("# HELP x y\nx_total{disk=\"1\",op=\"get\"} 3\nx_total{disk=\"2\",op=\"get\"} 4\ny 1.5e-3\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("x_total", "op", "get"); got != 7 {
		t.Errorf("sum = %v, want 7", got)
	}
	if v, ok := sc.get("x_total", "disk", "2"); !ok || v != 4 {
		t.Errorf("get disk=2 = %v, %v", v, ok)
	}
	if p := parsePlaced("stored 10 bytes in group 3 at offset 4096\n"); p != (Placed{Group: 3, Off: 4096}) {
		t.Errorf("gateway ack parsed as %+v", p)
	}
	if p := parsePlaced("stored 10 bytes at offset 8192\n"); p != (Placed{Off: 8192}) {
		t.Errorf("single ack parsed as %+v", p)
	}
}
