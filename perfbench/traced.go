package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed step of a traced request, recorded in the benchmark
// around its own HTTP calls: op.get/op.put (the whole op) and its children
// http.request (send until response headers), http.body (body read) and
// verify (byte comparison).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	RID    string `json:"rid"`
	Start  int64  `json:"start_ns"` // since the traced window began
	End    int64  `json:"end_ns"`
}

// spansOf turns the traced records of ph into spans.
func spansOf(ph Phase) []Span {
	var out []Span
	id := 0
	rel := func(t time.Time) int64 { return t.Sub(ph.Start).Nanoseconds() }
	for _, r := range ph.Recs {
		if !r.Traced || r.Tm.T0.IsZero() {
			continue
		}
		rid := requestID(r.Client, r.Seq)
		end := r.Tm.Done
		if end.IsZero() { // failed: the op ended where its last step did
			end = r.Tm.Headers
			if !r.Tm.Body.IsZero() {
				end = r.Tm.Body
			}
		}
		id++
		root := id
		out = append(out, Span{ID: root, Name: "op." + r.Kind.String(), RID: rid, Start: rel(r.Tm.T0), End: rel(end)})
		steps := []struct {
			name       string
			start, end time.Time
		}{
			{"http.request", r.Tm.T0, r.Tm.Headers},
			{"http.body", r.Tm.Headers, r.Tm.Body},
			{"verify", r.Tm.Body, r.Tm.Done},
		}
		for _, s := range steps {
			if s.start.IsZero() || s.end.IsZero() || (r.Kind == OpPut && s.name == "verify") {
				continue
			}
			id++
			out = append(out, Span{ID: id, Parent: root, Name: s.name, RID: rid, Start: rel(s.start), End: rel(s.end)})
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layer is one per-layer metric with the count it was taken over.
type layer struct {
	name string
	unit string
	val  float64
	base int
	of   string // what base counts
}

// runTraced deploys once, runs an untraced and then a traced window of
// -seconds each on the same deployment, and reports per-layer metrics from
// the traced window's spans, before/after /metrics scrapes of every
// process, and an in-process replay of its GET stream.
func runTraced(ctx context.Context, b *Bench) (*Result, error) {
	window := time.Duration(*secondsFlag) * time.Second
	var t tally
	sr, err := b.Setup(ctx, 0, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t.add(sr.Seeding)
	sut := sr.SUT
	defer sut.Close()

	warm, err := b.Run(ctx, warmup, false)
	t.add(warm)
	if err != nil {
		return nil, err
	}
	plain, err := b.Run(ctx, window, false)
	t.add(plain)
	if err != nil {
		return nil, err
	}
	before, err := scrapeAll(ctx, sut)
	if err != nil {
		return nil, err
	}
	cpu0, self0, err := cpuNow(sut)
	if err != nil {
		return nil, err
	}
	traced, err := b.Run(ctx, window, true)
	t.add(traced)
	if err != nil {
		return nil, err
	}
	cpu1, self1, err := cpuNow(sut)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ctx, sut)
	if err != nil {
		return nil, err
	}
	verify, err := b.VerifyAcked(ctx)
	t.add(verify)
	if err != nil {
		return nil, err
	}
	host := hostInfo(*rootFlag, sut.Front.cmd.Process.Pid)
	if err := sut.Close(); err != nil {
		return nil, err
	}

	var keys []int
	for _, r := range traced.ops(OpGet) {
		keys = append(keys, r.Key)
	}
	rp, err := b.runReplay(ctx, filepath.Join(b.Work, "replay"), keys, 3*time.Second)
	if err != nil {
		return nil, err
	}

	spans := spansOf(traced)
	spanPath := filepath.Join(*buildFlag, benchDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.W.Name, b.Seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, err
	}

	// Write-path layers are read over the phase in which the workload PUTs:
	// the traced window for a mix with PUTs, the seeding otherwise.
	wBefore, wAfter, wPuts := before, after, traced.ops(OpPut)
	if len(wPuts) == 0 {
		wBefore, wAfter, wPuts = sr.Before, sr.After, sr.Seeding.Recs
	}
	ops := len(traced.Recs)
	layers := perLayer(b, traced, before, after, wBefore, wAfter, wPuts, rp)
	layers = append(layers,
		layer{"sut.cpu_ms_per_op", "ms", float64(cpu1-cpu0) * 1e3 / ticksPerSecond / float64(ops), ops, "ops"},
		layer{"loadgen.cpu_ms_per_op", "ms", float64(self1-self0) * 1e3 / ticksPerSecond / float64(ops), ops, "ops"},
		layer{"trace.overhead_ms", "ms", meanMs(traced.Recs) - meanMs(plain.Recs), ops, "traced ops"},
	)
	m := map[string]Metric{}
	var lines []string
	for _, l := range layers {
		m[l.name] = Metric{l.val, l.unit}
		lines = append(lines, fmt.Sprintf("%s base: %d %s", l.name, l.base, l.of))
	}
	lines = append(lines,
		fmt.Sprintf("tracing overhead: untraced %d ops at %.3f ms mean, traced %d ops at %.3f ms mean",
			len(plain.Recs), meanMs(plain.Recs), len(traced.Recs), meanMs(traced.Recs)),
		fmt.Sprintf("%d spans written to %s", len(spans), spanPath))
	report(b, host, m, lines)
	return &Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// cpuNow returns the CPU ticks used so far by the running processes under
// test, summed, and by this load generator.
func cpuNow(s *SUT) (sut, self int64, err error) {
	for _, p := range s.Running() {
		v, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		sut += v
	}
	self, err = cpuTicks(os.Getpid())
	return sut, self, err
}

// meanMs is the mean latency of the successful records.
func meanMs(recs []Rec) float64 {
	var xs []float64
	for _, r := range recs {
		if r.Err == nil {
			xs = append(xs, r.Ms)
		}
	}
	return mean(xs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the scrape- and replay-based layer metrics. Layers a
// workload's deployment lacks (the gateway and data nodes in single mode,
// the httpd cache and device queues in the cluster) read 0 with base 0.
func perLayer(b *Bench, win Phase, before, after, wBefore, wAfter Scrapes, wPuts []Rec, rp Replay) []layer {
	gets := win.ops(OpGet)
	nGets := len(gets)
	var getBytes, dataCells float64
	for _, r := range gets {
		getBytes += float64(r.Bytes)
		dataCells += float64(r.Obj.Cells)
	}
	var out []layer
	add := func(name, unit string, v float64, base int, of string) {
		out = append(out, layer{name, unit, v, base, of})
	}

	// httpd (single mode).
	hGet, nhGet := histMean(before, after, "ecfrm_httpd_request_seconds", "op", "get")
	hPut, nhPut := histMean(wBefore, wAfter, "ecfrm_httpd_request_seconds", "op", "put")
	hits := delta(before, after, "ecfrm_httpd_cache_hits_total")
	misses := delta(before, after, "ecfrm_httpd_cache_misses_total")
	add("httpd.get_ms", "ms", hGet*1e3, nhGet, "httpd GETs")
	add("httpd.put_ms", "ms", hPut*1e3, nhPut, "httpd PUTs")
	add("httpd.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), "httpd GETs")

	// gateway and data nodes (cluster).
	gGet, ngGet := histMean(before, after, "ecfrm_gateway_request_seconds", "op", "get")
	add("gateway.get_ms", "ms", gGet*1e3, ngGet, "gateway GETs")
	var rtt float64
	var up int
	for _, s := range after["gateway"] {
		if s.Name == "ecfrm_gateway_node_latency_ewma_seconds" && s.Labels["node"] != fmt.Sprint(killedNode) {
			rtt += s.Value
			up++
		}
	}
	add("gateway.node_rtt_ms", "ms", ratio(rtt, float64(up))*1e3, up, "live nodes (EWMA of node requests)")
	nodeReqs := delta(before, after, "ecfrm_node_request_seconds_count")
	add("gateway.node_requests_per_get", "count", ratio(nodeReqs, float64(ngGet)), ngGet, "gateway GETs")
	add("gateway.net_read_amp", "ratio", ratio(delta(before, after, "ecfrm_gateway_node_read_bytes_total"), getBytes),
		nGets, "GETs")
	nRun, nnRun := histMean(before, after, "ecfrm_node_request_seconds")
	add("datanode.read_run_ms", "ms", nRun*1e3, nnRun, "node requests")

	// Client side: client-observed GET mean minus the server's.
	server := hGet
	if b.W.Cluster {
		server = gGet
	}
	add("http.client_overhead_ms", "ms", meanMs(gets)-server*1e3, nGets, "GETs")

	// Store reads.
	reads := delta(before, after, "ecfrm_store_reads_total")
	add("store.read_ms", "ms", rp.ReadMs, rp.Reads, "replayed reads")
	add("store.runs_per_read", "count", ratio(delta(before, after, "ecfrm_store_read_run_bytes_count"), reads),
		int(reads), "store reads")
	devq, ndevq := histMean(before, after, "ecfrm_devq_io_seconds", "op", "read")
	add("store.devq_io_ms", "ms", devq*1e3, ndevq, "device-queue reads")
	load, nload := histMean(before, after, "ecfrm_store_read_max_disk_load")
	add("store.max_disk_load", "count", load, nload, "store reads")
	fired := delta(before, after, "ecfrm_store_hedge_total", "outcome", "fired")
	won := delta(before, after, "ecfrm_store_hedge_total", "outcome", "won")
	add("store.hedges_per_read", "count", ratio(fired, reads), int(reads), "store reads")
	add("store.hedge_win_ratio", "ratio", ratio(won, fired), int(fired), "hedges fired")
	// Data cells the store read for: every GET in the cluster (no cache),
	// the cache misses' share in single mode.
	storeCells := dataCells
	if hits+misses > 0 {
		storeCells *= misses / (hits + misses)
	}
	add("store.cells_per_data_cell", "ratio", ratio(delta(before, after, "ecfrm_disk_element_reads_total"), storeCells),
		int(storeCells), "data cells requested from the store")
	add("store.replans_per_read", "count", ratio(delta(before, after, "ecfrm_store_read_replans_total"), reads),
		int(reads), "store reads")

	// Store writes, over the phase that PUTs.
	nPuts := len(wPuts)
	var userBytes float64
	for _, r := range wPuts {
		if r.Err == nil {
			userBytes += float64(r.Bytes)
		}
	}
	walPut, nwal := histMean(wBefore, wAfter, "ecfrm_wal_put_seconds")
	add("store.wal_put_ms", "ms", walPut*1e3, nwal, "WAL puts")
	barrier, nbar := histMean(wBefore, wAfter, "ecfrm_store_fsync_barrier_seconds")
	add("store.fsync_barrier_ms", "ms", barrier*1e3, nbar, "fsync barriers")
	fsyncs := delta(wBefore, wAfter, "ecfrm_devq_io_seconds_count", "op", "sync") +
		delta(wBefore, wAfter, "ecfrm_wal_log_sync_seconds_count") +
		delta(wBefore, wAfter, "ecfrm_node_syncs_total")
	add("store.fsyncs_per_put", "count", ratio(fsyncs, float64(nPuts)), nPuts, "PUTs")
	batch, nbatch := histMean(wBefore, wAfter, "ecfrm_wal_batch_objects")
	add("store.wal_objects_per_commit", "count", batch, nbatch, "group commits")
	written := delta(wBefore, wAfter, "ecfrm_disk_element_writes_total")*cellBytes +
		delta(wBefore, wAfter, "ecfrm_wal_log_bytes")
	add("store.write_amp", "ratio", ratio(written, userBytes), nPuts, "PUTs")

	// core, from the replay.
	add("core.plan_us", "us", rp.PlanUs, rp.Plans, "replayed plans")
	add("core.decode_us", "us", rp.DecodeUs, rp.Decodes, "replayed stripe reconstructions")
	add("core.encode_mbps", "MB/s", rp.EncodeMBps, rp.Decodes, "replayed stripe encodes")
	return out
}
