package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/store"
)

// TestGatewayGetContentLength: a GET declares the object's size up front and
// is not sent chunked, like the HEAD that describes it.
func TestGatewayGetContentLength(t *testing.T) {
	scheme := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	tc := newTestCluster(t, scheme, 512, 1, nodesNeeded(scheme), store.ReadOptions{})
	defer tc.teardown()
	payload := make([]byte, 10_000) // well over the 2 KiB net/http sizes on its own
	rand.New(rand.NewSource(21)).Read(payload)
	tc.put(t, "big", payload)

	srv := httptest.NewServer(tc.gw)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/objects/big")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("GET: status %d, err %v, byte-identical %v", resp.StatusCode, err, bytes.Equal(got, payload))
	}
	if resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("GET: Content-Length %d, Transfer-Encoding %v; want %d, not chunked",
			resp.ContentLength, resp.TransferEncoding, len(payload))
	}
}

// TestGatewayReadBuffersHeldAcrossNodeKill: 32 read results taken through
// the gateway's stores and never released stay byte-identical while
// concurrent GETs — each releasing its result once written — run through a
// node kill, replanning around it mid-pass until the prober marks it down.
// The in-process nodes share the gateway's ReadBuffers and are
// memory-backed, so a node reply that handed out live cell storage, or a run
// buffer recycled before assembly, shows up as wrong bytes or as a heal.
// `make ownership` runs this under -race -count=10.
func TestGatewayReadBuffersHeldAcrossNodeKill(t *testing.T) {
	scheme := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem, groups = 512, 2
	tc := newTestCluster(t, scheme, elem, groups, nodesNeeded(scheme), store.ReadOptions{})
	defer tc.teardown()

	rng := rand.New(rand.NewSource(22))
	names := make([]string, 24)
	payloads := make(map[string][]byte)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%02d", i)
		p := make([]byte, 1+rng.Intn(3*scheme.DataPerStripe()*elem))
		rng.Read(p)
		payloads[names[i]] = p
		tc.put(t, names[i], p)
	}

	type held struct {
		res  *store.ReadResult
		name string
	}
	var holds []held
	for i := 0; i < 32; i++ {
		name := names[i%len(names)]
		obj, _ := tc.gw.lookup(name)
		res, err := tc.gw.stores[obj.meta.Group].ReadAtCtx(context.Background(), obj.meta.Off, obj.meta.Size, store.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		holds = append(holds, held{res, name})
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[r.Intn(len(names))]
				q := ""
				if i%2 == 1 {
					q = "?concurrency=4"
				}
				got, code := tc.get(t, name, q)
				if code != http.StatusOK || !bytes.Equal(got, payloads[name]) {
					errc <- fmt.Errorf("GET %s%s: status %d, byte-identical %v", name, q, code, bytes.Equal(got, payloads[name]))
					return
				}
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	tc.servers[2].Close()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	for i, h := range holds {
		if !bytes.Equal(h.res.Data, payloads[h.name]) {
			t.Fatalf("held result %d (%s) changed under concurrent released reads", i, h.name)
		}
	}
	reg := tc.gw.Registry()
	var heals, replans int64
	for grp := 0; grp < groups; grp++ {
		g := reg.With(obs.L("group", fmt.Sprint(grp)))
		heals += g.Counter("ecfrm_store_heals_total", "").Value()
		replans += g.Counter("ecfrm_store_read_replans_total", "").Value()
	}
	if heals != 0 {
		t.Fatalf("%d cells healed: node storage was overwritten", heals)
	}
	t.Logf("%d reads replanned around the killed node", replans)
}
