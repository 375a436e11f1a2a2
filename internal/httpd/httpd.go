// Package httpd exposes the erasure-coded blob store as an HTTP object
// service — the "cloud storage system" face of the reproduction. Objects are
// PUT once (append-only, matching the paper's write model) and GET any
// number of times; reads degrade transparently under injected disk failures,
// and an admin surface drives failure injection, recovery, scrubbing, and
// I/O statistics.
//
//	PUT  /objects/{name}         store the request body as an object; the
//	                             response acks only after the WAL's group
//	                             commit makes the bytes durable, so many
//	                             concurrent small PUTs pack into shared
//	                             stripes instead of sealing one each
//	GET  /objects/{name}         read it back (degraded reads transparent)
//	                             ?sequential=1     use the sequential executor
//	                             ?concurrency=N    bound fan-out worker count
//	                             ?hedge=1|0        enable/disable hedged reads
//	                             ?nocache=1        bypass the decoded cache
//	HEAD /objects/{name}         metadata only: Content-Length, X-Read-Cost,
//	                             X-Max-Disk-Load from the plan — no decode
//	GET  /metrics                Prometheus text exposition (see internal/obs)
//	GET  /debug/pprof/*          net/http/pprof (opt-in via Config.EnablePprof)
//	GET  /admin/status           scheme, stripes, failures, device counters
//	POST /admin/fail?disk=D      mark device D failed
//	POST /admin/recover?disk=D   rebuild device D from survivors
//	POST /admin/scrub            verify parity of every stripe
//	GET  /admin/checksums        re-check every cell's CRC32C
//	POST /admin/corrupt?...      inject silent bit rot into one cell
//	GET  /faults                 the installed fault plan (zero plan if none)
//	PUT  /faults                 install a deterministic fault plan (JSON)
//	DELETE /faults               clear the fault plan
//
// Reads that exhaust their retry budget against slow or erroring devices
// surface as 503 with a Retry-After header: the condition is transient by
// construction (a cleared plan or a healthier disk serves the next attempt),
// unlike unrecoverable degradation which is also 503 but permanent until an
// admin intervenes.
//
// All handlers are safe for concurrent use. Locking is sharded so
// independent GETs plan and decode in parallel: the server holds only a
// small lock around the object-name map (PUTs take it just long enough to
// reserve the name, never across store I/O), each object carries its own
// mutex (which doubles as single-flight for cache fills), and the store
// synchronizes device access internally with shared-read locking and atomic
// I/O counters. PUTs whose group commit trips the fault injector get 503
// with Retry-After — the WAL keeps their bytes queued for the next batch,
// and the name reservation is released so the retry can claim it. Hot objects are served from an epoch-tagged decoded-payload
// cache that failure injection, recovery, corruption, and healing all
// invalidate by bumping the store epoch.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/store"
)

// Cache sizing: only objects at most maxCachedObjectBytes are cached, and
// the total cached payload across all objects stays under cacheBudgetBytes.
const (
	maxCachedObjectBytes = 4 << 20
	cacheBudgetBytes     = 64 << 20
)

// objectMeta locates one object inside the append-only store.
type objectMeta struct {
	Off  int64 `json:"off"`
	Size int   `json:"size"`
}

// cachedRead is one decoded GET result, valid while the store epoch holds.
type cachedRead struct {
	epoch   int64
	data    []byte
	cost    float64
	maxLoad int
}

// object is one stored object: immutable metadata plus a small cache of its
// last decoded read. The mutex single-flights cache fills, so a burst of
// GETs for one hot object decodes it once; GETs for different objects never
// contend on it.
//
// An object enters the map as a name reservation before its bytes are
// durable: committed flips true (with release semantics, after meta is set)
// only when the WAL's group commit acks the PUT. Readers that observe
// committed==false treat the name as absent; the PUT handler deletes the
// reservation if the commit fails, so the name frees up for a retry.
type object struct {
	meta      objectMeta
	committed atomic.Bool
	mu        sync.Mutex
	cache     *cachedRead
}

// Server is the HTTP object service.
type Server struct {
	store *store.Store
	wal   *store.WAL
	mux   *http.ServeMux

	// mu guards only the objects map; per-object state has its own lock.
	mu      sync.RWMutex
	objects map[string]*object

	// faultMu guards the fault plan mirrored here for /faults GET round-trips
	// (the compiled injector lives in the store).
	faultMu   sync.Mutex
	faultPlan faultinject.Plan

	// cacheBytes tracks the total decoded payload bytes currently cached.
	cacheBytes atomic.Int64

	// draining flips when Close starts shutting the write path down:
	// /healthz keeps answering (the process lives) but /readyz fails, so
	// probers and gateways stop routing new work here.
	draining atomic.Bool

	// Observability (see internal/obs): the registry backing GET /metrics,
	// cache hit/miss counters, and per-op request latency histograms.
	reg         *obs.Registry
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	latGet      *obs.Histogram
	latPut      *obs.Histogram
	latHead     *obs.Histogram
}

// Config tunes optional server behaviour.
type Config struct {
	// Registry receives the server's (and, via store.SetMetrics, the
	// store's) metrics. Nil creates a private registry; either way GET
	// /metrics serves it.
	Registry *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints on a storage port are opt-in.
	EnablePprof bool
	// WAL tunes the group-commit write path (batch threshold and flush
	// interval); the zero value uses the store defaults of one stripe and
	// store.DefaultFlushInterval.
	WAL store.WALConfig
}

// requestBuckets spans 100µs to ~25s exponentially — tight enough to
// resolve cache hits, wide enough for degraded reads under injected latency.
var requestBuckets = obs.ExpBuckets(1e-4, 4, 9)

// NewServer wraps a store (callers construct it with the scheme and element
// size they want) with default Config.
func NewServer(st *store.Store) *Server { return NewServerWith(st, Config{}) }

// NewServerWith wraps a store with explicit observability configuration.
func NewServerWith(st *store.Store, cfg Config) *Server {
	s := &Server{store: st, objects: make(map[string]*object)}
	// A plan installed before the server existed (ecfrmd -faults) still
	// round-trips through GET /faults.
	if in, ok := st.FaultInjector().(*faultinject.Injector); ok {
		s.faultPlan = in.Plan()
	}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	// Wire the store's bundle into the same registry unless something
	// upstream (the daemon, a test) already installed one.
	if st.Metrics() == nil {
		st.SetMetrics(store.NewMetrics(s.reg, st.Scheme().N()))
	}
	s.wal = store.NewWAL(st, cfg.WAL)
	s.cacheHits = s.reg.Counter("ecfrm_httpd_cache_hits_total",
		"Object GETs served from the decoded-read cache.")
	s.cacheMisses = s.reg.Counter("ecfrm_httpd_cache_misses_total",
		"Object GETs that had to decode from the store.")
	s.latGet = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "get"))
	s.latPut = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "put"))
	s.latHead = s.reg.Histogram("ecfrm_httpd_request_seconds",
		"Object request latency by operation.", requestBuckets, obs.L("op", "head"))
	s.reg.GaugeFunc("ecfrm_httpd_cached_bytes",
		"Decoded payload bytes currently cached.",
		func() float64 { return float64(s.cacheBytes.Load()) })
	s.reg.GaugeFunc("ecfrm_httpd_objects",
		"Objects stored.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.objects))
		})

	mux := http.NewServeMux()
	mux.HandleFunc("/objects/", s.handleObject)
	mux.HandleFunc("/admin/status", s.handleStatus)
	mux.HandleFunc("/admin/fail", s.handleFail)
	mux.HandleFunc("/admin/recover", s.handleRecover)
	mux.HandleFunc("/admin/scrub", s.handleScrub)
	mux.HandleFunc("/admin/checksums", s.handleChecksums)
	mux.HandleFunc("/admin/corrupt", s.handleCorrupt)
	mux.HandleFunc("/faults", s.handleFaults)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.reg.Handler())
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Registry returns the registry behind GET /metrics, so embedding callers
// (the daemons) can add their own instruments to the same scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// WAL exposes the server's group-commit write path (tests and benchmarks
// inspect its depth and log).
func (s *Server) WAL() *store.WAL { return s.wal }

// Close drains and shuts down the write path: queued PUTs are committed,
// then further PUTs fail with 503. /readyz starts failing immediately so
// load balancers and smoke scripts see the drain. Call after the HTTP
// listener stops accepting requests.
func (s *Server) Close() error {
	s.draining.Store(true)
	return s.wal.Close()
}

// handleHealthz is the liveness probe: 200 whenever the process serves HTTP,
// draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz is the readiness probe: 200 while the server accepts new
// work, 503 once Close has started draining it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/objects/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad object name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		defer obs.StartSpan(s.latPut).End()
		s.putObject(w, r, name)
	case http.MethodGet:
		defer obs.StartSpan(s.latGet).End()
		s.getObject(w, r, name)
	case http.MethodHead:
		defer obs.StartSpan(s.latHead).End()
		s.headObject(w, r, name)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) putObject(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		http.Error(w, "empty object", http.StatusBadRequest)
		return
	}
	// The map lock is held only to reserve the name — never across store
	// I/O — so concurrent PUTs for different objects proceed in parallel
	// and share group commits instead of serializing behind one another.
	// The reservation itself preserves the append-only contract: a second
	// PUT for the same name sees the entry (committed or not) and gets 409.
	obj := &object{}
	s.mu.Lock()
	if _, exists := s.objects[name]; exists {
		s.mu.Unlock()
		http.Error(w, "object exists (store is append-only)", http.StatusConflict)
		return
	}
	s.objects[name] = obj
	s.mu.Unlock()

	// Queue into the WAL and wait for the group commit that makes the
	// bytes durable. Many concurrent PUTs pack into shared stripes here.
	off, err := s.wal.Put(r.Context(), body)
	if err != nil {
		// The commit failed or the client gave up: free the name so a
		// retry can claim it. Fault-aborted commits are transient by
		// construction (the WAL retains its queue and retries), so steer
		// the client back just like degraded reads do.
		s.mu.Lock()
		delete(s.objects, name)
		s.mu.Unlock()
		switch {
		case errors.Is(err, store.ErrUnavailable):
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, store.ErrWALClosed):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case r.Context().Err() != nil:
			// Client disconnected while waiting for the ack; its entry may
			// still commit, but nobody is listening for the outcome.
			http.Error(w, err.Error(), 499)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	obj.meta = objectMeta{Off: off, Size: len(body)}
	obj.committed.Store(true) // publish: readers load-acquire this flag
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "stored %d bytes at offset %d\n", len(body), off)
}

// lookup fetches an object's handle under the shared map lock. Names whose
// PUT has not yet group-committed are reservations, not objects: callers see
// them as absent.
func (s *Server) lookup(name string) (*object, bool) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok || !obj.committed.Load() {
		return nil, false
	}
	return obj, true
}

// parseReadOptions derives per-request executor options from query
// parameters, starting from the store's installed defaults. It reports
// whether the request also asked to bypass the decoded-payload cache.
func (s *Server) parseReadOptions(r *http.Request) (opts store.ReadOptions, nocache bool) {
	opts = s.store.ReadDefaults()
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
	if v := q.Get("nocache"); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			nocache = b
		}
	}
	return opts, nocache
}

func (s *Server) getObject(w http.ResponseWriter, r *http.Request, name string) {
	obj, ok := s.lookup(name)
	if !ok {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	opts, nocache := s.parseReadOptions(r)
	data, cost, maxLoad, res, err := s.readObject(r.Context(), obj, opts, nocache)
	if err != nil {
		// Both flavors of degradation are availability failures, but
		// exhausted retries against slow/erroring devices are transient:
		// tell the client when to come back.
		if errors.Is(err, store.ErrUnavailable) {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Read-Cost", fmt.Sprintf("%.3f", cost))
	w.Header().Set("X-Max-Disk-Load", strconv.Itoa(maxLoad))
	w.Write(data)
	if res != nil {
		res.Release()
	}
}

// headObject serves object metadata without decoding or transferring the
// payload: the size from the object map and the cost/max-load a GET would
// incur, computed by planning the read without touching any device.
func (s *Server) headObject(w http.ResponseWriter, _ *http.Request, name string) {
	obj, ok := s.lookup(name)
	if !ok {
		// No http.Error: HEAD responses carry no body.
		w.WriteHeader(http.StatusNotFound)
		return
	}
	plan, err := s.store.PlanRead(obj.meta.Off, obj.meta.Size)
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(obj.meta.Size))
	w.Header().Set("X-Read-Cost", fmt.Sprintf("%.3f", plan.Cost()))
	w.Header().Set("X-Max-Disk-Load", strconv.Itoa(plan.MaxLoad()))
	w.WriteHeader(http.StatusOK)
}

// readObject returns the object's decoded payload, serving from the
// epoch-tagged cache when valid and filling it otherwise. The per-object
// mutex is held only for the decode, never while writing the response, and
// cached payloads are immutable once published. The context cancels device
// waits when the client disconnects; nocache requests neither consult nor
// fill the cache (latency benchmarking must hit the executor every time).
// A payload that did not go into the cache comes with its read result,
// which the caller releases once the payload is written.
func (s *Server) readObject(ctx context.Context, obj *object, opts store.ReadOptions, nocache bool) ([]byte, float64, int, *store.ReadResult, error) {
	obj.mu.Lock()
	defer obj.mu.Unlock()
	epoch := s.store.Epoch()
	if c := obj.cache; c != nil {
		if c.epoch == epoch && !nocache {
			s.cacheHits.Inc()
			return c.data, c.cost, c.maxLoad, nil, nil
		}
		if c.epoch != epoch {
			// Stale: drop it and release its budget before re-reading.
			s.cacheBytes.Add(-int64(len(c.data)))
			obj.cache = nil
		}
	}
	s.cacheMisses.Inc()
	res, err := s.store.ReadAtCtx(ctx, obj.meta.Off, obj.meta.Size, opts)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	cost, maxLoad := res.Plan.Cost(), res.Plan.MaxLoad()
	// Cache small objects while the budget lasts. A healing read bumps the
	// epoch itself, so re-check: only results still current are cacheable.
	// The cache keeps an exact-size copy: the read's buffer has its arena
	// size class's capacity, up to twice its length, and the budget counts
	// lengths.
	if !nocache && obj.meta.Size <= maxCachedObjectBytes && s.store.Epoch() == epoch && res.Healed == 0 &&
		s.cacheBytes.Load()+int64(len(res.Data)) <= cacheBudgetBytes {
		data := append([]byte(nil), res.Data...)
		res.Release()
		obj.cache = &cachedRead{epoch: epoch, data: data, cost: cost, maxLoad: maxLoad}
		s.cacheBytes.Add(int64(len(data)))
		return data, cost, maxLoad, nil, nil
	}
	return res.Data, cost, maxLoad, res, nil
}

// Status is the admin status document.
type Status struct {
	Scheme         string  `json:"scheme"`
	Disks          int     `json:"disks"`
	FaultTolerance int     `json:"fault_tolerance"`
	Overhead       float64 `json:"storage_overhead"`
	Stripes        int     `json:"stripes"`
	Bytes          int64   `json:"bytes"`
	Objects        int     `json:"objects"`
	FailedDisks    []int   `json:"failed_disks"`
	DeviceReads    []int   `json:"device_reads"`
	DeviceWrites   []int   `json:"device_writes"`
	CachedBytes    int64   `json:"cached_bytes"`
	WALQueued      int     `json:"wal_queued_objects"`
	WALQueuedBytes int     `json:"wal_queued_bytes"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	objects := len(s.objects)
	s.mu.RUnlock()
	sch := s.store.Scheme()
	st := Status{
		Scheme:         sch.Name(),
		Disks:          sch.N(),
		FaultTolerance: sch.FaultTolerance(),
		Overhead:       sch.StorageOverhead(),
		Stripes:        s.store.Stripes(),
		Bytes:          s.store.Len(),
		Objects:        objects,
		FailedDisks:    s.store.FailedDisks(),
		CachedBytes:    s.cacheBytes.Load(),
	}
	st.WALQueued, st.WALQueuedBytes = s.wal.Depth()
	for d := 0; d < sch.N(); d++ {
		st.DeviceReads = append(st.DeviceReads, s.store.Device(d).Reads())
		st.DeviceWrites = append(st.DeviceWrites, s.store.Device(d).Writes())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) diskParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	d, err := strconv.Atoi(r.URL.Query().Get("disk"))
	if err != nil || d < 0 || d >= s.store.Scheme().N() {
		http.Error(w, "bad or missing disk parameter", http.StatusBadRequest)
		return 0, false
	}
	return d, true
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	d, ok := s.diskParam(w, r)
	if !ok {
		return
	}
	// The tolerance check and the mark are one atomic store operation, so
	// concurrent fail requests cannot race past the fault tolerance.
	if !s.store.FailDiskWithinTolerance(d) {
		http.Error(w, fmt.Sprintf("refusing: %d failures already at tolerance", len(s.store.FailedDisks())),
			http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "disk %d failed\n", d)
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	d, ok := s.diskParam(w, r)
	if !ok {
		return
	}
	cost, err := s.store.RecoverDisk(d)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnrecoverable) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	fmt.Fprintf(w, "disk %d recovered, %d elements read\n", d, cost)
}

// handleChecksums re-verifies every stored cell's CRC and reports failures.
func (s *Server) handleChecksums(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	bad := s.store.VerifyChecksums()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"corrupt_cells": bad, "count": len(bad)})
}

// handleCorrupt injects silent bit rot into one stored cell — a failure-
// injection hook for demos and tests (the read path will heal it).
func (s *Server) handleCorrupt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	stripe, err1 := strconv.Atoi(q.Get("stripe"))
	row, err2 := strconv.Atoi(q.Get("row"))
	col, err3 := strconv.Atoi(q.Get("col"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "corrupt requires stripe, row, col", http.StatusBadRequest)
		return
	}
	lay := s.store.Scheme().Layout()
	if stripe < 0 || stripe >= s.store.Stripes() ||
		row < 0 || row >= lay.Rows() || col < 0 || col >= lay.N() {
		http.Error(w, "cell out of range", http.StatusBadRequest)
		return
	}
	if err := s.store.CorruptCell(stripe, layout.Pos{Row: row, Col: col}); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "corrupted stripe %d cell (%d,%d)\n", stripe, row, col)
}

// handleFaults drives the deterministic fault-injection subsystem: PUT
// installs a validated plan (compiling it into the store's injector and
// bumping the store epoch, which invalidates every decoded-read cache), GET
// round-trips the installed plan, DELETE clears it.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.faultMu.Lock()
		plan := s.faultPlan
		s.faultMu.Unlock()
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
		s.faultMu.Lock()
		s.faultPlan = plan
		s.store.SetFaultInjector(faultinject.New(plan))
		s.faultMu.Unlock()
		fmt.Fprintf(w, "fault plan installed: seed %d, %d policies\n", plan.Seed, len(plan.Policies))
	case http.MethodDelete:
		s.faultMu.Lock()
		s.faultPlan = faultinject.Plan{}
		s.store.SetFaultInjector(nil)
		s.faultMu.Unlock()
		fmt.Fprintln(w, "fault plan cleared")
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	bad, err := s.store.Scrub()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"corrupt_stripes": bad})
}
