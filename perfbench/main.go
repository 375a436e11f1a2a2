// Command perfbench is the repository's end-to-end benchmark: it deploys the
// real ecfrmd binary as processes on loopback, drives its HTTP object API
// from a closed loop of two clients, byte-verifies every response, and
// prints end-to-end metrics (-trace 0) or per-layer metrics (-trace 1).
// run.sh builds the binaries and invokes it; README.md describes the
// workloads and metrics.
//
//	bash perfbench/run.sh --workload read-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is nonzero when any op failed or any check
// did not hold.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// benchDir is this benchmark's directory, relative to the repository root.
const benchDir = "perfbench"

var (
	workloadFlag = flag.String("workload", "", "workload: read-cold, mixed-hot, read-slow-disk, cluster-degraded")
	seedFlag     = flag.Int64("seed", 1, "seed for the dataset and op streams")
	secondsFlag  = flag.Int("seconds", 10, "length of each timed window in seconds")
	traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	binFlag      = flag.String("bin", "", "ecfrmd binary (built by run.sh)")
	buildFlag    = flag.String("build", ".bench_build", "directory for scratch deployments and outputs")
	rootFlag     = flag.String("root", ".", "repository root (for the source hash in the host record)")
)

// setups is how many times an untraced run deploys and seeds; setup_s is
// the median.
const setups = 3

// warmup precedes every timed window: it fills the decoded-object cache and
// lets lazy start-up work finish before the clock starts.
const warmup = time.Second

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	flag.Parse()
	w, ok := workloads[*workloadFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}
	if *binFlag == "" || *secondsFlag < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	hostSteal = startStealClock()
	// Every run must end well inside three minutes; SIGINT/SIGTERM end it
	// early. Either way the deferred cleanup kills every process started.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, w)
	stop()
	cancel()
	hostSteal.Close()
	if kerr := killAll(); kerr != nil {
		err = errors.Join(err, kerr)
	}
	if res != nil {
		if err != nil {
			res.Correct = false
		}
		// JSON has no NaN or infinity: a value that is not a number is
		// absent, like a refused percentile.
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				delete(res.Metrics, name)
			}
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes the untraced or traced run of w.
func run(ctx context.Context, w Workload) (*Result, error) {
	work, err := filepath.Abs(filepath.Join(*buildFlag, "perfbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin, err := filepath.Abs(*binFlag)
	if err != nil {
		return nil, err
	}
	b := NewBench(w, *seedFlag, bin, work)
	defer b.Close()
	if *traceFlag == 1 {
		return runTraced(ctx, b)
	}
	return runUntraced(ctx, b)
}

// tally accumulates attempted and failed ops across phases.
type tally struct{ attempted, failed int }

func (t *tally) add(ph Phase) {
	t.attempted += len(ph.Recs)
	t.failed += ph.failures()
}

// runUntraced deploys setups times (reporting the median set-up time),
// then measures the last deployment for -seconds.
func runUntraced(ctx context.Context, b *Bench) (*Result, error) {
	window := time.Duration(*secondsFlag) * time.Second
	var (
		t          tally
		setupSecs  []float64
		seedPuts   []Rec
		seedSlices []Slice
		deployment *SetupResult
	)
	for i := 0; i < setups; i++ {
		sr, err := b.Setup(ctx, i, false)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		t.add(sr.Seeding)
		setupSecs = append(setupSecs, sr.Seconds)
		seedPuts = append(seedPuts, sr.Seeding.Recs...)
		seedSlices = append(seedSlices, cutSeconds(sr.Seeding)...)
		if i < setups-1 {
			if err := sr.SUT.Close(); err != nil {
				return nil, err
			}
			continue
		}
		deployment = sr
	}
	sut := deployment.SUT
	defer sut.Close()

	warm, err := b.Run(ctx, warmup, false)
	t.add(warm)
	if err != nil {
		return nil, err
	}
	win, err := b.Run(ctx, window, false)
	t.add(win)
	if err != nil {
		return nil, err
	}
	verify, err := b.VerifyAcked(ctx)
	t.add(verify)
	if err != nil {
		return nil, err
	}
	host := hostInfo(*rootFlag, sut.Front.cmd.Process.Pid)
	space, err := diskBytes(sut)
	if err != nil {
		return nil, err
	}
	for _, p := range sut.Running() {
		if err := p.Kill(); err != nil {
			return nil, err
		}
	}
	rssKB := int64(0)
	for _, p := range sut.Procs {
		rssKB += p.hwmKB
	}

	m := map[string]Metric{}
	var notes []string
	// Rates and GET latency are medians over the quieter half of the
	// window's slices; see quietHalf.
	gets, puts := win.ops(OpGet), win.ops(OpPut)
	getAll := cutWindow(gets, win.Start, window)
	putAll := cutWindow(puts, win.Start, window)
	if len(puts) == 0 {
		// A read-only mix PUTs only while seeding: report the seeding PUTs
		// (same clients, same closed loop) of every deployment, cut into
		// whole seconds.
		puts, putAll = seedPuts, seedSlices
	}
	getSlices, putSlices := quietHalf(getAll), quietHalf(putAll)
	notes = addSliceLatency(m, notes, "get", getSlices, []float64{0.5, 0.9})
	// PUT latency and throughput are printed but not part of the result:
	// see README.md.
	ungated := map[string]Metric{"put_mbps": {sliceMBps(putSlices), "MB/s"}}
	notes = addLatency(ungated, notes, "put", puts, []float64{0.5, 0.9})
	for _, name := range sortedNames(ungated) {
		notes = append(notes, fmt.Sprintf("%s = %.6g %s (printed only)", name, ungated[name].Value, ungated[name].Unit))
	}
	m["get_mbps"] = Metric{sliceMBps(getSlices), "MB/s"}
	m["setup_s"] = Metric{median(setupSecs), "s"}
	m["space_amp"] = Metric{float64(space) / float64(b.AckedBytes()), "ratio"}
	m["sut_rss_mb"] = Metric{float64(rssKB) / 1024, "MiB"}

	failedRatio := float64(t.failed) / float64(t.attempted)
	report(b, host, m, append(notes,
		fmt.Sprintf("failed_ratio = %.6f ratio (%d of %d ops; absent from the JSON line, where failed/attempted carry it)",
			failedRatio, t.failed, t.attempted),
		fmt.Sprintf("window: %d GETs, %d PUTs in %.2fs; setups: %v s", len(gets), len(win.ops(OpPut)),
			win.Elapsed.Seconds(), roundAll(setupSecs)),
		fmt.Sprintf("GET p50 ms per slice of the window: %v", slicePoints(getAll, 0.5)),
		fmt.Sprintf("GET MB/s per slice of the window: %v", sliceRates(getAll)),
		fmt.Sprintf("CPU steal %% per slice of the window: %v", sliceSteal(getAll)),
		fmt.Sprintf("PUT MB/s per slice (seeding seconds on read-only mixes): %v", sliceRates(putAll)),
		fmt.Sprintf("CPU steal %% per PUT slice: %v", sliceSteal(putAll)),
	))
	if err := sut.Close(); err != nil {
		return nil, err
	}
	return &Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// addLatency adds <kind>_p<q>_ms for each quantile the sample supports;
// a refused percentile is noted, not reported.
func addLatency(m map[string]Metric, notes []string, kind string, recs []Rec, qs []float64) []string {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = r.Ms
	}
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%g_ms", kind, q*100)
		v, err := Percentile(ms, q)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s absent: %v", name, err))
			continue
		}
		m[name] = Metric{v.Value, "ms"}
		notes = append(notes, fmt.Sprintf("%s from %d samples", name, v.N))
	}
	return notes
}

// addSliceLatency adds <kind>_p<q>_ms for each quantile, as the median
// over slices of each slice's quantile; a refused one is noted, not reported.
func addSliceLatency(m map[string]Metric, notes []string, kind string, sl []Slice, qs []float64) []string {
	for _, q := range qs {
		name := fmt.Sprintf("%s_p%g_ms", kind, q*100)
		v, used, err := sliceQuantile(sl, q)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s absent: %v", name, err))
			continue
		}
		m[name] = Metric{v.Value, "ms"}
		notes = append(notes, fmt.Sprintf("%s: median of %d slices, from %d samples", name, used, v.N))
	}
	return notes
}

// okBytes sums the payload bytes of successful ops (verified GETs, acked PUTs).
func okBytes(recs []Rec) int64 {
	var t int64
	for _, r := range recs {
		if r.Err == nil {
			t += int64(r.Bytes)
		}
	}
	return t
}

// diskBytes sums the allocated size of every file under the deployment's
// data directories: device data, CRC sidecars, WAL logs and manifests.
func diskBytes(s *SUT) (int64, error) {
	var total int64
	for _, p := range s.Procs {
		if p.Dir == "" {
			continue
		}
		err := filepath.Walk(p.Dir, func(_ string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if st, ok := fi.Sys().(*syscall.Stat_t); ok && !fi.IsDir() {
				total += st.Blocks * 512
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// report prints the host record, every metric by name and unit, one per
// line, and notes, ahead of the JSON result line.
func report(b *Bench, host Host, m map[string]Metric, notes []string) {
	hj, _ := json.Marshal(map[string]any{"workload": b.W.Name, "seed": b.Seed, "host": host})
	fmt.Println(string(hj))
	for _, n := range sortedNames(m) {
		fmt.Printf("%s = %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, s := range notes {
		fmt.Println("# " + s)
	}
}

// sortedNames returns m's metric names in order.
func sortedNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// slicePoints is each slice's q-quantile latency (NaN where too thin).
func slicePoints(sl []Slice, q float64) []float64 {
	out := make([]float64, len(sl))
	for i, s := range sl {
		v, _, err := sliceQuantile([]Slice{s}, q)
		out[i] = v.Value
		if err != nil {
			out[i] = math.NaN()
		}
	}
	return roundAll(out)
}

// sliceSteal is each slice's stolen share of CPU time, in %.
func sliceSteal(sl []Slice) []float64 {
	out := make([]float64, len(sl))
	for i, s := range sl {
		out[i] = 100 * s.Steal
	}
	return roundAll(out)
}

// sliceRates is each slice's successful payload MB/s.
func sliceRates(sl []Slice) []float64 {
	out := make([]float64, len(sl))
	for i, s := range sl {
		out[i] = float64(okBytes(s.Recs)) / 1e6 / s.Secs
	}
	return roundAll(out)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
