# Developer entry points. `make ci` is the gate every change should pass:
# vet, the full test suite under the race detector, and a short benchmark
# smoke run proving the kernel and pooled paths still execute.

GO ?= go

.PHONY: all build test ci vet race race-io ownership bench-smoke bench kernels-json kernels16-json widestripe readpath-smoke readpath-json fanout-json fuzz-smoke fuzz16-smoke chaos obs-smoke fanout-smoke writepath-smoke writepath-json disk-smoke disk-json repair-smoke repair-chaos repair-json cluster-smoke cluster-json

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages under the race detector: the sharded object
# server, the store's reader/mutator paths, the streaming pipeline, and the
# metrics registry every scrape races against.
race-io:
	$(GO) test -race ./internal/httpd/... ./internal/store/... ./internal/shardio/... ./internal/obs/... ./internal/gateway/... ./internal/datanode/...

# The read-buffer ownership tests, repeated under the race detector: results
# held while concurrent reads recycle theirs, memory-backend cells kept out
# of the arena, and passes that replan around a device or node killed
# mid-read (see ReadBuffers in internal/store/readbuf.go).
ownership:
	$(GO) test -race -count=10 -run 'ReadBuffers' ./internal/store ./internal/gateway

# A fast benchmark pass (one short iteration per benchmark) that catches
# panics/regressions in the bench harnesses without waiting for full timings.
bench-smoke:
	$(GO) test -run NONE -bench 'Encode|Reconstruct' -benchtime 1x -benchmem ./...

# The real kernel/throughput numbers used in acceptance checks.
bench:
	$(GO) test -run NONE -bench 'Encode|Reconstruct' -benchmem .

# Machine-readable kernel throughput report (BENCH_kernels.json).
kernels-json:
	$(GO) run ./cmd/ecfrmbench -kernels BENCH_kernels.json

# Machine-readable GF(2^16) kernel throughput report (BENCH_kernels16.json).
# The ISSUE's acceptance bar is a >=5x SIMD-over-reference speedup on the
# multiply-accumulate path; the report carries the geometric mean.
kernels16-json:
	$(GO) run ./cmd/ecfrmbench -kernels16 BENCH_kernels16.json

# The wide-stripe acceptance sweep: (k=64, m=4) RS/LRC/CRS over GF(2^16)
# through the full store — seal, clean reads, max-tolerated-failure degraded
# reads, and whole-disk repair, every read byte-verified.
widestripe:
	$(GO) run ./cmd/ecfrmbench -widestripe /tmp/ecfrm-widestripe.json

# A small streaming-vs-buffered read-path run that catches pipeline
# regressions without the full payload; the JSON goes to a throwaway path.
readpath-smoke:
	$(GO) run ./cmd/ecfrmbench -readpath /tmp/ecfrm-readpath-smoke.json -readpath-bytes 16777216

# The committed read-path numbers (BENCH_readpath.json): 1 GiB payload so the
# buffered baseline pays its real O(file) allocation cost.
readpath-json:
	$(GO) run ./cmd/ecfrmbench -readpath BENCH_readpath.json -readpath-bytes 1073741824

# End-to-end observability check against a real daemon: start ecfrmd, PUT and
# GET an object over HTTP, and assert /metrics scrapes cleanly with the
# expected series present (per-disk reads, max-load histogram, cache counters).
obs-smoke:
	./scripts/obs-smoke.sh

# End-to-end fan-out read check against a real daemon under a jittered
# slow-disk fault plan: hedged fan-out GETs must beat sequential GETs on
# total and worst-case latency, and the hedge counters must move.
fanout-smoke:
	./scripts/fanout-smoke.sh

# The committed fan-out executor numbers (BENCH_fanout.json): sequential vs
# fan-out vs hedged across the slow-disk and uniform-latency scenarios.
fanout-json:
	$(GO) run ./cmd/ecfrmbench -fanout BENCH_fanout.json

# End-to-end write-path check against a real daemon under a jittered fault
# plan: concurrent small PUTs must pack into fewer stripes than objects, every
# object must read back byte-identical, scrub must come back clean, and the
# WAL metric families must move.
writepath-smoke:
	./scripts/writepath-smoke.sh

# The committed write-path numbers (BENCH_writepath.json): per-object seals vs
# group-commit WAL packing, and parity-delta vs full-stripe re-encode updates.
writepath-json:
	$(GO) run ./cmd/ecfrmbench -writepath BENCH_writepath.json

# End-to-end crash-consistency check of the file backend against a real
# daemon: concurrent PUTs, SIGKILL, restart on the same data directory —
# every acked stripe must survive, scrub must come back clean, and the
# per-device submission-queue metrics must be live.
disk-smoke:
	./scripts/disk-smoke.sh

# The committed file-backend numbers (BENCH_disk.json): streaming write
# throughput under fsync barriers, the disksim calibration fit with its
# error bound, and sequential vs fan-out vs hedged reads on real files.
disk-json:
	$(GO) run ./cmd/ecfrmbench -disk BENCH_disk.json

# End-to-end self-healing check against a real daemon: PUT objects, zero one
# device's data file under the live process, and require the repair
# scheduler's error detector to fail-stop and rebuild the disk on its own —
# byte-identical reads, clean scrub, persisted scrub cursor, live MTTR and
# repair-bytes metrics, and a runtime rate retune over /repair/.
repair-smoke:
	./scripts/repair-smoke.sh

# The repair acceptance suite under the race detector: kill a disk mid-
# traffic with a seeded fault plan and assert detection, MTTR, foreground
# p99, and byte-identical recovery from a live /metrics scrape. Two fixed
# seeds plus a time-derived one (rerun failures with CHAOS_SEED=<seed>).
repair-chaos:
	@seed=$${CHAOS_SEED:-$$(date +%s)}; \
	echo "repair-chaos: extra seed $$seed (reproduce with CHAOS_SEED=$$seed make repair-chaos)"; \
	CHAOS_SEED=$$seed $(GO) test -race -run ChaosKilledDisk ./internal/repair/

# The committed repair scheduler numbers (BENCH_repair.json): MTTR and
# foreground p99 as a function of the token-bucket rate limit.
repair-json:
	$(GO) run ./cmd/ecfrmbench -repair BENCH_repair.json

# End-to-end networked-cluster check: three file-backed data-node processes
# behind a gateway process on localhost, readiness-gated startup, a concurrent
# PUT burst, hedge activity under an injected slow device, and a SIGKILLed
# node mid-traffic with zero failed reads — every GET byte-identical through
# degraded reconstruction, replan/degraded/node-down series live on /metrics.
cluster-smoke:
	./scripts/cluster-smoke.sh

# The committed cluster numbers (BENCH_cluster.json): local vs networked vs
# networked+hedged read latency, and degraded-read network amplification with
# one node down.
cluster-json:
	$(GO) run ./cmd/ecfrmbench -cluster BENCH_cluster.json

# A short fuzz run over the GF kernel equivalence target.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzKernelEquivalence -fuzztime 10s ./internal/gf

# A short fuzz run over the GF(2^16) split-table/reference equivalence target.
fuzz16-smoke:
	$(GO) test -run NONE -fuzz FuzzGF16Tables -fuzztime 10s ./internal/gf16

# The seeded chaos suite under the race detector: the two fixed seeds plus a
# time-derived one (echoed here and in the test log — rerun any failure with
# CHAOS_SEED=<seed>). -count=2 re-runs everything to shake out order effects.
chaos:
	@seed=$${CHAOS_SEED:-$$(date +%s)}; \
	echo "chaos: extra seed $$seed (reproduce with CHAOS_SEED=$$seed make chaos)"; \
	CHAOS_SEED=$$seed $(GO) test -race -count=2 -run 'Chaos|FaultSequence|Replays|FaultStreams|StreamSourceFault|StreamSinkFault' \
		./internal/faultinject/ ./internal/shardio/

ci: vet race race-io ownership bench-smoke widestripe readpath-smoke obs-smoke fanout-smoke writepath-smoke disk-smoke disk-json repair-smoke repair-chaos cluster-smoke cluster-json chaos
