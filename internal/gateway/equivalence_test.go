package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/datanode"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/store"
)

// schemeGrid is the {RS, LRC, CRS} × {standard, rotated, ecfrm} sweep the
// equivalence property covers — the same grid the single-process fan-out
// tests use, now re-proven across a process boundary.
func schemeGrid(t testing.TB) map[string]*core.Scheme {
	t.Helper()
	cells := make(map[string]*core.Scheme)
	for cname, c := range map[string]codes.Code{
		"rs":  rs.Must(6, 3),
		"lrc": lrc.Must(6, 2, 2),
		"crs": crs.Must(6, 3),
	} {
		for _, form := range []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM} {
			cells[fmt.Sprintf("%s-%s", cname, form)] = core.MustScheme(c, form)
		}
	}
	return cells
}

// testCluster is N in-process data nodes plus a gateway over them, all
// sharing one obs registry — which is itself a regression test for the
// With-view namespacing: gateway, every group store, and every node register
// identically-named families in one scrape.
type testCluster struct {
	gw      *Gateway
	nodes   []*datanode.Server
	servers []*httptest.Server
}

func newTestCluster(t testing.TB, scheme *core.Scheme, elem, groups, nNodes int, opts store.ReadOptions) *testCluster {
	t.Helper()
	reg := obs.NewRegistry()
	tc := &testCluster{}
	urls := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		n, err := datanode.New(datanode.Config{
			ElemSize: elem,
			Registry: reg.With(obs.L("component", "node"), obs.L("node", fmt.Sprint(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(n)
		tc.nodes = append(tc.nodes, n)
		tc.servers = append(tc.servers, srv)
		urls[i] = srv.URL
	}
	gw, err := New(Config{
		Nodes:         urls,
		Groups:        groups,
		ElemSize:      elem,
		Registry:      reg,
		Scheme:        scheme,
		Read:          opts,
		SyncWrites:    true,
		ProbeInterval: 50 * time.Millisecond,
		NodeTimeout:   5 * time.Second,
		WAL:           store.WALConfig{FlushInterval: time.Millisecond},
	})
	if err != nil {
		tc.teardown()
		t.Fatal(err)
	}
	tc.gw = gw
	return tc
}

func (tc *testCluster) teardown() {
	if tc.gw != nil {
		tc.gw.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
	for _, n := range tc.nodes {
		n.Close()
	}
}

// put stores an object through the gateway's HTTP surface.
func (tc *testCluster) put(t testing.TB, name string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/objects/"+name, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
	}
}

// get reads an object through the gateway's HTTP surface.
func (tc *testCluster) get(t testing.TB, name, query string) ([]byte, int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/objects/"+name+query, nil)
	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	return rec.Body.Bytes(), rec.Code
}

// nodesNeeded picks the smallest cluster (≥3 nodes) where losing one whole
// node stays within the scheme's tolerance in every group.
func nodesNeeded(scheme *core.Scheme) int {
	n, tol := scheme.N(), scheme.FaultTolerance()
	w := (n + tol - 1) / tol
	if w < 3 {
		w = 3
	}
	return w
}

// TestGatewayLocalEquivalence is the acceptance property: the same objects
// PUT through a gateway over in-process networked nodes and into a single
// local store must read back byte-identical — across every code × layout
// cell, through the plain, forced-fanout, and hedged executors, and still
// after one whole node is killed (degraded reads reconstruct over the
// network). Runs under -race via `make race-io`.
func TestGatewayLocalEquivalence(t *testing.T) {
	const elem = 512
	rng := rand.New(rand.NewSource(42))
	for name, scheme := range schemeGrid(t) {
		scheme := scheme
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, scheme, elem, 3, nodesNeeded(scheme), store.ReadOptions{})
			defer tc.teardown()

			// The local twin: one store + WAL fed the same bytes.
			local := store.MustNew(scheme, elem)
			localWAL := store.NewWAL(local, store.WALConfig{FlushInterval: time.Millisecond})
			defer localWAL.Close()

			type obj struct {
				name     string
				payload  []byte
				localOff int64
			}
			var objs []obj
			for i := 0; i < 14; i++ {
				size := 1 + rng.Intn(4*elem*scheme.DataPerStripe()/elem)
				payload := make([]byte, size)
				rng.Read(payload)
				o := obj{name: fmt.Sprintf("obj-%02d", i), payload: payload}
				tc.put(t, o.name, payload)
				off, err := localWAL.Put(context.Background(), payload)
				if err != nil {
					t.Fatalf("local put: %v", err)
				}
				o.localOff = off
				objs = append(objs, o)
			}

			check := func(stage string) {
				for _, o := range objs {
					for _, q := range []string{"", "?sequential=1", "?concurrency=4", "?hedge=1"} {
						got, code := tc.get(t, o.name, q)
						if code != http.StatusOK {
							t.Fatalf("%s: GET %s%s: status %d %s", stage, o.name, q, code, got)
						}
						if !bytes.Equal(got, o.payload) {
							t.Fatalf("%s: GET %s%s: bytes differ from payload", stage, o.name, q)
						}
					}
					res, err := local.ReadAt(o.localOff, len(o.payload))
					if err != nil {
						t.Fatalf("%s: local read %s: %v", stage, o.name, err)
					}
					if !bytes.Equal(res.Data, o.payload) {
						t.Fatalf("%s: local store diverged from payload for %s", stage, o.name)
					}
				}
			}
			check("healthy")

			// Kill one whole node mid-life: every group loses at most
			// tolerance disks, so degraded reads must keep returning exactly
			// the same bytes, reconstructing cells over the network.
			tc.servers[1].Close()
			check("node 1 down")
		})
	}
}

// TestGatewayConcurrentPutGetWithNodeKill exercises the cluster the way the
// smoke test does, in-process and race-detected: concurrent PUTs and GETs
// while a node dies under the load. Reads must never fail or return wrong
// bytes; PUTs may 503 during the outage (writes need every disk) but must
// not corrupt anything.
func TestGatewayConcurrentPutGetWithNodeKill(t *testing.T) {
	scheme := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem = 512
	tc := newTestCluster(t, scheme, elem, 4, nodesNeeded(scheme), store.ReadOptions{})
	defer tc.teardown()

	rng := rand.New(rand.NewSource(7))
	payloads := make(map[string][]byte)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("pre-%02d", i)
		p := make([]byte, 1+rng.Intn(6*elem))
		rng.Read(p)
		payloads[name] = p
		tc.put(t, name, p)
	}

	stop := make(chan struct{})
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("pre-%02d", r.Intn(24))
				q := ""
				if i%3 == 1 {
					q = "?hedge=1"
				}
				got, code := tc.get(t, name, q)
				if code != http.StatusOK {
					errc <- fmt.Errorf("GET %s: status %d: %s", name, code, got)
					return
				}
				if !bytes.Equal(got, payloads[name]) {
					errc <- fmt.Errorf("GET %s: wrong bytes", name)
					return
				}
			}
		}()
	}
	// Writers keep PUTting; 503s are legal once the node is gone.
	go func() {
		r := rand.New(rand.NewSource(999))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := make([]byte, 1+r.Intn(4*elem))
			r.Read(p)
			req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/objects/live-%04d", i), bytes.NewReader(p))
			rec := httptest.NewRecorder()
			tc.gw.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated && rec.Code != http.StatusServiceUnavailable {
				errc <- fmt.Errorf("PUT live-%04d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	tc.servers[2].Close() // SIGKILL-equivalent: connections refused from here on
	time.Sleep(200 * time.Millisecond)
	close(stop)

	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the dust settles the survivors must still serve every preloaded
	// object byte-identically.
	for name, p := range payloads {
		got, code := tc.get(t, name, "")
		if code != http.StatusOK {
			t.Fatalf("final GET %s: status %d: %s", name, code, got)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("final GET %s: wrong bytes", name)
		}
	}
}

// TestGatewayDegradedReadsSkipDeadNode: once a probe sweep has marked a
// killed node down, degraded GETs plan around it from their first pass —
// every executor returns byte-identical data, no read replans, and no
// request goes to the dead node.
func TestGatewayDegradedReadsSkipDeadNode(t *testing.T) {
	scheme := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem, groups = 512, 4
	tc := newTestCluster(t, scheme, elem, groups, nodesNeeded(scheme), store.ReadOptions{})
	defer tc.teardown()

	rng := rand.New(rand.NewSource(12))
	payloads := make(map[string][]byte)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		p := make([]byte, 1+rng.Intn(4*scheme.DataPerStripe()*elem))
		rng.Read(p)
		payloads[name] = p
		tc.put(t, name, p)
	}

	const dead = 1
	tc.servers[dead].Close()
	deadline := time.Now().Add(5 * time.Second)
	for tc.gw.nodes[dead].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe never marked the killed node down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	reg := tc.gw.Registry()
	replans := func() int64 {
		var sum int64
		for grp := 0; grp < groups; grp++ {
			sum += reg.With(obs.L("group", fmt.Sprint(grp))).Counter("ecfrm_store_read_replans_total", "").Value()
		}
		return sum
	}
	deadErrs := reg.With(obs.L("component", "gateway")).Counter("ecfrm_gateway_node_errors_total", "",
		obs.L("node", fmt.Sprint(dead)))
	replans0, errs0 := replans(), deadErrs.Value()

	for round := 0; round < 3; round++ {
		for name, p := range payloads {
			for _, q := range []string{"", "?sequential=1", "?concurrency=4", "?hedge=1"} {
				got, code := tc.get(t, name, q)
				if code != http.StatusOK || !bytes.Equal(got, p) {
					t.Fatalf("GET %s%s: status %d, byte-identical %v", name, q, code, bytes.Equal(got, p))
				}
			}
		}
	}
	if got := replans(); got != replans0 {
		t.Fatalf("replans moved from %d to %d with the dead node already probed down", replans0, got)
	}
	if got := deadErrs.Value(); got != errs0 {
		t.Fatalf("dead node's error counter moved from %d to %d", errs0, got)
	}
}

// TestGatewayReadsRunsOverFrameLimit: fan-out coalesces a device's
// contiguous slots into one run of any length, and nodes refuse a frame over
// nodeapi.MaxRunBytes with 413. With the limit lowered to three cells, GETs
// whose device runs are many times longer — healthy reads in the standard
// layout, degraded reads in every layout — must still read byte-identical
// without a single node error or replan.
func TestGatewayReadsRunsOverFrameLimit(t *testing.T) {
	const elem = 64
	defer func(old int) { nodeapi.MaxRunBytes = old }(nodeapi.MaxRunBytes)
	nodeapi.MaxRunBytes = nodeapi.FrameLen(elem, 3)

	for _, form := range []layout.Form{layout.FormStandard, layout.FormECFRM} {
		t.Run(fmt.Sprint(form), func(t *testing.T) {
			scheme := core.MustScheme(rs.Must(6, 3), form)
			tc := newTestCluster(t, scheme, elem, 1, nodesNeeded(scheme), store.ReadOptions{})
			defer tc.teardown()

			rng := rand.New(rand.NewSource(13))
			payloads := make(map[string][]byte)
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("obj-%d", i)
				p := make([]byte, (40+rng.Intn(20))*scheme.DataPerStripe()*elem)
				rng.Read(p)
				payloads[name] = p
				tc.put(t, name, p)
			}

			reg := tc.gw.Registry()
			replans := reg.With(obs.L("group", "0")).Counter("ecfrm_store_read_replans_total", "")
			nodeErrs := func() (sum int64) {
				for i := range tc.nodes {
					sum += reg.With(obs.L("component", "gateway")).Counter("ecfrm_gateway_node_errors_total", "",
						obs.L("node", fmt.Sprint(i))).Value()
				}
				return sum
			}
			readAll := func(stage string) {
				t.Helper()
				for name, p := range payloads {
					for _, q := range []string{"", "?sequential=1", "?concurrency=4", "?hedge=1"} {
						got, code := tc.get(t, name, q)
						if code != http.StatusOK || !bytes.Equal(got, p) {
							t.Fatalf("%s GET %s%s: status %d, byte-identical %v", stage, name, q, code, bytes.Equal(got, p))
						}
					}
				}
			}

			readAll("healthy")
			if r, e := replans.Value(), nodeErrs(); r != 0 || e != 0 {
				t.Fatalf("healthy reads: %d replans, %d node errors", r, e)
			}

			const dead = 1
			tc.servers[dead].Close()
			deadline := time.Now().Add(5 * time.Second)
			for tc.gw.nodes[dead].up.Load() {
				if time.Now().After(deadline) {
					t.Fatal("probe never marked the killed node down")
				}
				time.Sleep(5 * time.Millisecond)
			}
			errs0 := nodeErrs()
			readAll("degraded")
			if r, e := replans.Value(), nodeErrs(); r != 0 || e != errs0 {
				t.Fatalf("degraded reads: %d replans, node errors %d → %d", r, errs0, e)
			}
		})
	}
}

// TestGatewayReadyzLifecycle covers the probe→formed→draining arc.
func TestGatewayReadyzLifecycle(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormECFRM)
	tc := newTestCluster(t, scheme, 512, 2, 3, store.ReadOptions{})
	defer tc.teardown()

	deadline := time.Now().Add(5 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		rec := httptest.NewRecorder()
		tc.gw.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never became ready: %d %s", rec.Code, rec.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := tc.gw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close = %d, want 503", rec.Code)
	}
	// healthz stays alive while draining.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	tc.gw.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after close = %d, want 200", rec.Code)
	}
}
