// Package gateway is the access half of the cluster split: the service that
// owns placement metadata and serves the object API by fanning erasure-coded
// cell I/O out over the network to data nodes.
//
// Architecture: the gateway holds one real store.Store per placement group,
// whose devices are HTTP clients (remoteCell) against the nodes the
// placement map assigns. That one decision buys the whole single-process
// feature set across the process boundary unchanged — the fan-out executor
// coalesces cell runs into single node requests, hedged reads race parity
// reconstruction against slow nodes, degraded replanning routes around dead
// ones (a refused connection surfaces as ErrUnavailable exactly like a
// failed local disk), group-commit WAL writes seal through the two-phase
// gate with the fsync barrier forwarded node-side, and startup recovery can
// re-derive the sealed extents from whatever the nodes kept.
//
// Object names hash across Groups independent stripe groups
// (placement.Map), so capacity and traffic scale horizontally with nodes ×
// groups; per-node inflight and latency EWMAs — not per-disk queues — feed
// the degraded planner, because in this regime contention lives at the node.
//
// The HTTP surface mirrors internal/httpd where it overlaps: PUT/GET/HEAD
// /objects/{name} with the same ?sequential/?concurrency/?hedge query knobs
// and 503+Retry-After semantics, /faults driving the deterministic injector
// on every group store, /metrics, /healthz, /readyz, plus /placement and an
// aggregated /admin/status. There is deliberately no decoded-object cache:
// the gateway exists to measure and serve the networked read path.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
)

// Config configures a gateway.
type Config struct {
	// Nodes are the data-node base URLs (http://host:port). Required.
	Nodes []string
	// Groups is the number of stripe groups names hash across (default 4).
	Groups int
	// ElemSize is the cell size in bytes (default 4096).
	ElemSize int
	// Registry receives gateway and per-group store metrics; nil creates a
	// private one. Group stores register through reg.With(group=G) views, so
	// any number of them share one scrape without series collisions.
	Registry *obs.Registry
	// WAL tunes each group's group-commit write path. LogPath must be empty:
	// durability comes from the nodes' fsync barrier, not a gateway-local
	// spill.
	WAL store.WALConfig
	// Read sets the default read-executor options for every group store.
	Read store.ReadOptions
	// NodeTimeout bounds one node request (default 5s); a hung node turns
	// into ErrUnavailable and a replan once it expires.
	NodeTimeout time.Duration
	// ProbeInterval is the health-probe cadence (default 1s, <0 disables).
	ProbeInterval time.Duration
	// SyncWrites runs the commit-path durability barrier (node-side fsync)
	// before publishing stripes.
	SyncWrites bool
	// Recover re-derives each group's sealed extent from the nodes at
	// startup (the gateway-restart path).
	Recover bool
	// Scheme builds the erasure-coding scheme (required).
	Scheme *core.Scheme
}

// objectMeta locates one object: which group's extent, where in it.
type objectMeta struct {
	Group int   `json:"group"`
	Off   int64 `json:"off"`
	Size  int   `json:"size"`
}

// object is a name reservation that becomes readable when committed flips
// (same protocol as internal/httpd).
type object struct {
	meta      objectMeta
	committed atomic.Bool
}

// Gateway is the access service.
type Gateway struct {
	cfg    Config
	scheme *core.Scheme
	pm     *placement.Map
	nodes  []*nodeClient
	stores []*store.Store
	wals   []*store.WAL
	mux    *http.ServeMux

	mu      sync.RWMutex
	objects map[string]*object

	faultMu   sync.Mutex
	faultPlan faultinject.Plan

	draining atomic.Bool
	formed   atomic.Bool // every node answered at least one probe

	probeStop chan struct{}
	probeDone chan struct{}

	reg     *obs.Registry
	latGet  *obs.Histogram
	latPut  *obs.Histogram
	latHead *obs.Histogram
	probes  *obs.Counter
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

var requestBuckets = obs.ExpBuckets(1e-4, 4, 9)

// New builds a gateway over the configured nodes. The placement map is
// validated against the scheme's fault tolerance: a cluster where one node
// holds more disks of a group than the scheme can lose is refused, because
// the "killed node keeps serving reads" invariant would silently not hold.
func New(cfg Config) (*Gateway, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("gateway: scheme is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("gateway: no nodes")
	}
	if cfg.Groups == 0 {
		cfg.Groups = 4
	}
	if cfg.ElemSize == 0 {
		cfg.ElemSize = 4096
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.WAL.LogPath != "" {
		return nil, fmt.Errorf("gateway: WAL.LogPath is node-side durability's job; must be empty")
	}
	pm, err := placement.New(cfg.Groups, cfg.Scheme.N(), cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if err := pm.CheckTolerance(cfg.Scheme.FaultTolerance()); err != nil {
		return nil, err
	}

	g := &Gateway{
		cfg:       cfg,
		scheme:    cfg.Scheme,
		pm:        pm,
		objects:   make(map[string]*object),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
		reg:       cfg.Registry,
	}
	if g.reg == nil {
		g.reg = obs.NewRegistry()
	}
	gwReg := g.reg.With(obs.L("component", "gateway"))
	g.latGet = gwReg.Histogram("ecfrm_gateway_request_seconds",
		"Gateway object request latency by operation.", requestBuckets, obs.L("op", "get"))
	g.latPut = gwReg.Histogram("ecfrm_gateway_request_seconds",
		"Gateway object request latency by operation.", requestBuckets, obs.L("op", "put"))
	g.latHead = gwReg.Histogram("ecfrm_gateway_request_seconds",
		"Gateway object request latency by operation.", requestBuckets, obs.L("op", "head"))
	g.probes = gwReg.Counter("ecfrm_gateway_probes_total", "Health-probe sweeps completed.")
	gwReg.GaugeFunc("ecfrm_gateway_objects", "Objects stored.", func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return float64(len(g.objects))
	})

	for i, base := range cfg.Nodes {
		g.nodes = append(g.nodes, newNodeClient(i, strings.TrimRight(base, "/"), cfg.NodeTimeout, gwReg))
	}

	for grp := 0; grp < cfg.Groups; grp++ {
		grp := grp
		st, _, err := store.NewWithCellBackends(cfg.Scheme, cfg.ElemSize,
			store.CellStoreConfig{Sync: cfg.SyncWrites, Recover: cfg.Recover},
			func(disk int) (store.CellBackend, error) {
				return &remoteCell{
					nc:    g.nodes[pm.Node(grp, disk)],
					group: grp,
					disk:  disk,
					elem:  cfg.ElemSize,
				}, nil
			})
		if err != nil {
			g.shutdownStores()
			return nil, fmt.Errorf("gateway: group %d: %w", grp, err)
		}
		// Per-group metrics live in a labelled view of the shared registry —
		// identical family names, disjoint series (the obs.With contract).
		st.SetMetrics(store.NewMetrics(g.reg.With(obs.L("group", strconv.Itoa(grp))), cfg.Scheme.N()))
		st.SetReadOptions(cfg.Read)
		if err := st.SetDeviceNodes(pm.NodeOf(grp)); err != nil {
			g.shutdownStores()
			return nil, err
		}
		g.stores = append(g.stores, st)
		g.wals = append(g.wals, store.NewWAL(st, cfg.WAL))
	}

	g.routes()
	if cfg.ProbeInterval > 0 {
		go g.probeLoop()
	} else {
		close(g.probeDone)
		g.formed.Store(true)
	}
	return g, nil
}

// Registry returns the registry behind GET /metrics.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Placement returns the gateway's placement map.
func (g *Gateway) Placement() *placement.Map { return g.pm }

// Store returns group grp's store (tests reach through for invariants).
func (g *Gateway) Store(grp int) *store.Store { return g.stores[grp] }

func (g *Gateway) shutdownStores() {
	for _, w := range g.wals {
		w.Close()
	}
	for _, st := range g.stores {
		st.Close()
	}
}

// Close drains the write path and stops probing. /readyz fails immediately;
// queued PUTs commit before their WALs shut down.
func (g *Gateway) Close() error {
	if g.draining.Swap(true) {
		return nil
	}
	close(g.probeStop)
	<-g.probeDone
	var err error
	for _, w := range g.wals {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	for _, st := range g.stores {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// probeLoop sweeps every node's /healthz on the configured cadence, feeding
// the per-node up gauges and the cluster-formed latch /readyz gates on.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	timeout := g.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		allSeen := true
		for _, nc := range g.nodes {
			ok := nc.healthz(timeout)
			nc.up.Store(ok)
			if ok {
				nc.seen.Store(true)
				nc.upGauge.Set(1)
			} else {
				nc.upGauge.Set(0)
			}
			if !nc.seen.Load() {
				allSeen = false
			}
		}
		if allSeen {
			g.formed.Store(true)
		}
		g.probes.Inc()
		select {
		case <-g.probeStop:
			return
		case <-tick.C:
		}
	}
}

// NodesUp reports how many nodes answered their latest health probe.
func (g *Gateway) NodesUp() int {
	up := 0
	for _, nc := range g.nodes {
		if nc.up.Load() {
			up++
		}
	}
	return up
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

func (g *Gateway) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("/objects/", g.handleObject)
	mux.HandleFunc("/admin/status", g.handleStatus)
	mux.HandleFunc("/placement", g.handlePlacement)
	mux.HandleFunc("/faults", g.handleFaults)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/readyz", g.handleReadyz)
	mux.Handle("/metrics", g.reg.Handler())
	g.mux = mux
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz gates on cluster formation (every node answered at least one
// probe) and drain. A node dying after formation does NOT flip readiness:
// serving degraded reads through failures is the design, not an outage.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !g.formed.Load() {
		http.Error(w, "cluster not formed", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ready (%d/%d nodes up)\n", g.NodesUp(), len(g.nodes))
}

func (g *Gateway) handleObject(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/objects/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad object name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		defer obs.StartSpan(g.latPut).End()
		g.putObject(w, r, name)
	case http.MethodGet:
		defer obs.StartSpan(g.latGet).End()
		g.getObject(w, r, name)
	case http.MethodHead:
		defer obs.StartSpan(g.latHead).End()
		g.headObject(w, name)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) putObject(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		http.Error(w, "empty object", http.StatusBadRequest)
		return
	}
	grp := g.pm.GroupOf(name)
	obj := &object{}
	g.mu.Lock()
	if _, exists := g.objects[name]; exists {
		g.mu.Unlock()
		http.Error(w, "object exists (store is append-only)", http.StatusConflict)
		return
	}
	g.objects[name] = obj
	g.mu.Unlock()

	off, err := g.wals[grp].Put(r.Context(), body)
	if err != nil {
		g.mu.Lock()
		delete(g.objects, name)
		g.mu.Unlock()
		switch {
		case errors.Is(err, store.ErrUnavailable):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, store.ErrWALClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case r.Context().Err() != nil:
			http.Error(w, err.Error(), 499)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	obj.meta = objectMeta{Group: grp, Off: off, Size: len(body)}
	obj.committed.Store(true)
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "stored %d bytes in group %d at offset %d\n", len(body), grp, off)
}

func (g *Gateway) lookup(name string) (*object, bool) {
	g.mu.RLock()
	obj, ok := g.objects[name]
	g.mu.RUnlock()
	if !ok || !obj.committed.Load() {
		return nil, false
	}
	return obj, true
}

// parseReadOptions mirrors httpd's per-request executor knobs.
func (g *Gateway) parseReadOptions(r *http.Request, grp int) store.ReadOptions {
	opts := g.stores[grp].ReadDefaults()
	q := r.URL.Query()
	if v := q.Get("sequential"); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			opts.Sequential = b
		}
	}
	if v := q.Get("concurrency"); v != "" {
		if c, err := strconv.Atoi(v); err == nil && c > 0 {
			opts.Concurrency = c
		}
	}
	if v := q.Get("hedge"); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			opts.Hedge.Enabled = b
		}
	}
	return opts
}

func (g *Gateway) getObject(w http.ResponseWriter, r *http.Request, name string) {
	obj, ok := g.lookup(name)
	if !ok {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	grp := obj.meta.Group
	res, err := g.stores[grp].ReadAtCtx(r.Context(), obj.meta.Off, obj.meta.Size, g.parseReadOptions(r, grp))
	if err != nil {
		if errors.Is(err, store.ErrUnavailable) {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.Data)))
	w.Header().Set("X-Read-Cost", fmt.Sprintf("%.3f", res.Plan.Cost()))
	w.Header().Set("X-Max-Disk-Load", strconv.Itoa(res.Plan.MaxLoad()))
	w.Header().Set("X-Placement-Group", strconv.Itoa(grp))
	w.Write(res.Data)
	res.Release()
}

func (g *Gateway) headObject(w http.ResponseWriter, name string) {
	obj, ok := g.lookup(name)
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	plan, err := g.stores[obj.meta.Group].PlanRead(obj.meta.Off, obj.meta.Size)
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(obj.meta.Size))
	w.Header().Set("X-Read-Cost", fmt.Sprintf("%.3f", plan.Cost()))
	w.Header().Set("X-Max-Disk-Load", strconv.Itoa(plan.MaxLoad()))
	w.Header().Set("X-Placement-Group", strconv.Itoa(obj.meta.Group))
	w.WriteHeader(http.StatusOK)
}

// ClusterStatus aggregates the gateway's view of the cluster.
type ClusterStatus struct {
	Scheme      string `json:"scheme"`
	Groups      int    `json:"groups"`
	Nodes       int    `json:"nodes"`
	NodesUp     int    `json:"nodes_up"`
	Objects     int    `json:"objects"`
	Bytes       int64  `json:"bytes"`
	Stripes     int    `json:"stripes"`
	FailedDisks []int  `json:"failed_disks_per_group"`
	WALQueued   int    `json:"wal_queued_objects"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	g.mu.RLock()
	objects := len(g.objects)
	g.mu.RUnlock()
	st := ClusterStatus{
		Scheme:  g.scheme.Name(),
		Groups:  g.pm.Groups,
		Nodes:   len(g.nodes),
		NodesUp: g.NodesUp(),
		Objects: objects,
	}
	for grp, s := range g.stores {
		st.Bytes += s.Len()
		st.Stripes += s.Stripes()
		st.FailedDisks = append(st.FailedDisks, len(s.FailedDisks()))
		q, _ := g.wals[grp].Depth()
		st.WALQueued += q
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (g *Gateway) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g.pm)
}

// handleFaults mirrors httpd's deterministic fault-injection surface, but a
// gateway-installed plan drives every group store at once (per-"disk"
// policies apply to the same disk index in each group).
func (g *Gateway) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		g.faultMu.Lock()
		plan := g.faultPlan
		g.faultMu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(plan)
	case http.MethodPut:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		plan, err := faultinject.ParsePlan(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.faultMu.Lock()
		g.faultPlan = plan
		for _, s := range g.stores {
			s.SetFaultInjector(faultinject.New(plan))
		}
		g.faultMu.Unlock()
		fmt.Fprintf(w, "fault plan installed on %d groups: seed %d, %d policies\n",
			len(g.stores), plan.Seed, len(plan.Policies))
	case http.MethodDelete:
		g.faultMu.Lock()
		g.faultPlan = faultinject.Plan{}
		for _, s := range g.stores {
			s.SetFaultInjector(nil)
		}
		g.faultMu.Unlock()
		fmt.Fprintln(w, "fault plan cleared")
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
