package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's client count: two clients on two keep-alive
// connections, matching the two CPUs the sizing runs were made on.
const clients = 2

// Rec is one op's outcome.
type Rec struct {
	Kind   OpKind
	Client int
	Seq    int
	Key    int    // seeded index of a GET
	Obj    Object // the object of a PUT (or a final-verification GET)
	Bytes  int
	Ms     float64 // latency; +Inf when the op failed
	Err    error
	Tm     Timing
	Traced bool
}

// Phase is one stretch of closed-loop traffic.
type Phase struct {
	Recs    []Rec
	Start   time.Time
	Elapsed time.Duration
}

// ops splits p's records by kind.
func (p *Phase) ops(k OpKind) []Rec {
	var out []Rec
	for _, r := range p.Recs {
		if r.Kind == k {
			out = append(out, r)
		}
	}
	return out
}

// failures counts p's failed ops.
func (p *Phase) failures() int {
	n := 0
	for _, r := range p.Recs {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// ackedPut is a PUT the program acknowledged with 201.
type ackedPut struct {
	Obj    Object
	Placed Placed
}

// Bench runs one workload against freshly deployed processes.
type Bench struct {
	W    Workload
	Seed int64
	Bin  string // the ecfrmd binary
	Work string // scratch directory for deployments

	Set      []Object
	Payloads [][]byte
	Placed   []Placed // where each seeded object landed (final setup)

	streams []*OpStream
	clients []*Client
	seq     [clients]int

	mu    sync.Mutex
	acked []ackedPut
}

// NewBench generates workload w's dataset and op streams from seed.
func NewBench(w Workload, seed int64, bin, work string) *Bench {
	b := &Bench{W: w, Seed: seed, Bin: bin, Work: work}
	b.Set = SeedSet(seed, w.DatasetBytes)
	b.Payloads = make([][]byte, len(b.Set))
	for i, o := range b.Set {
		b.Payloads[i] = payload(o)
	}
	for c := 0; c < clients; c++ {
		b.streams = append(b.streams, NewOpStream(w, seed, c, b.Set))
	}
	return b
}

// SetupResult is one deployment: spawn, /readyz, the seeded dataset, then
// the workload's fault plan or node kill.
type SetupResult struct {
	SUT     *SUT
	Seconds float64
	Seeding Phase
	Before  Scrapes // before seeding (traced runs only)
	After   Scrapes // after seeding, before any node kill (traced runs only)
}

// Setup deploys the workload's processes and seeds the dataset through
// them with the closed loop's clients. With scrapes set it also scrapes
// every process before and after seeding (outside the setup time).
func (b *Bench) Setup(ctx context.Context, i int, scrapes bool) (res *SetupResult, err error) {
	t0 := time.Now()
	sut, err := startSUT(ctx, b.Bin, filepath.Join(b.Work, fmt.Sprintf("deploy%d", i)), b.W)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			sut.Close()
		}
	}()
	res = &SetupResult{SUT: sut}
	var scrapeTime time.Duration
	scrapeInto := func(dst *Scrapes) error {
		if !scrapes {
			return nil
		}
		s0 := time.Now()
		defer func() { scrapeTime += time.Since(s0) }()
		sc, err := scrapeAll(ctx, sut)
		*dst = sc
		return err
	}
	if err := scrapeInto(&res.Before); err != nil {
		return nil, err
	}
	b.connect(sut)
	if res.Seeding, err = b.seed(ctx); err != nil {
		return nil, err
	}
	if err := scrapeInto(&res.After); err != nil {
		return nil, err
	}
	if b.W.SlowDisk0 > 0 {
		if err := sut.installFaults(ctx, slowDiskPlan(b.W.SlowDisk0)); err != nil {
			return nil, err
		}
	}
	if b.W.Cluster {
		if err := sut.killNode(ctx); err != nil {
			return nil, err
		}
	}
	res.Seconds = (time.Since(t0) - scrapeTime).Seconds()
	return res, nil
}

// connect points fresh clients at the deployment's object API.
func (b *Bench) connect(s *SUT) {
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = b.clients[:0]
	for c := 0; c < clients; c++ {
		b.clients = append(b.clients, NewClient(s.Front.URL()))
	}
}

// Close releases the clients' connections.
func (b *Bench) Close() {
	for _, c := range b.clients {
		c.Close()
	}
}

// seed PUTs every seeded object through the clients, a closed loop over a
// shared index. Any failed PUT fails the setup.
func (b *Bench) seed(ctx context.Context) (Phase, error) {
	b.Placed = make([]Placed, len(b.Set))
	var next atomic.Int64
	return b.loop(ctx, func(c int) (Rec, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(b.Set) {
			return Rec{}, false
		}
		r, pl := b.put(ctx, c, b.Set[i], false)
		b.Placed[i] = pl
		return r, true
	}, true)
}

// Run drives the workload's op mix for d. traced marks requests with an
// X-Request-Id and keeps their spans.
func (b *Bench) Run(ctx context.Context, d time.Duration, traced bool) (Phase, error) {
	deadline := time.Now().Add(d)
	return b.loop(ctx, func(c int) (Rec, bool) {
		if !time.Now().Before(deadline) {
			return Rec{}, false
		}
		op := b.streams[c].Next()
		if op.Kind == OpPut {
			r, pl := b.put(ctx, c, op.Obj, traced)
			if r.Err == nil {
				b.mu.Lock()
				b.acked = append(b.acked, ackedPut{Obj: op.Obj, Placed: pl})
				b.mu.Unlock()
			}
			return r, true
		}
		return b.get(ctx, c, op.Key, traced), true
	}, false)
}

// VerifyAcked GETs every object PUT during the timed phases by name and
// byte-compares it; each miss is a failed op.
func (b *Bench) VerifyAcked(ctx context.Context) (Phase, error) {
	b.mu.Lock()
	acked := append([]ackedPut(nil), b.acked...)
	b.mu.Unlock()
	var next atomic.Int64
	return b.loop(ctx, func(c int) (Rec, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(acked) {
			return Rec{}, false
		}
		o := acked[i].Obj
		want := payload(o)
		b.seq[c]++
		tm, err := b.clients[c].Get(ctx, o.Name, "", want)
		return finish(Rec{Kind: OpGet, Client: c, Seq: b.seq[c], Key: -1, Obj: o, Bytes: o.Size, Tm: tm, Err: err}), true
	}, false)
}

// loop runs next on every client until each reports it is done; a closed
// loop — each client issues its next request only after the previous reply.
// With stopOnFail the first failed op ends the phase with an error.
func (b *Bench) loop(ctx context.Context, next func(c int) (Rec, bool), stopOnFail bool) (Phase, error) {
	ph := Phase{Start: time.Now()}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		stop atomic.Bool
	)
	per := make([][]Rec, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				r, ok := next(c)
				if !ok {
					return
				}
				per[c] = append(per[c], r)
				if r.Err != nil && stopOnFail {
					mu.Lock()
					errs = append(errs, r.Err)
					mu.Unlock()
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	ph.Elapsed = time.Since(ph.Start)
	for _, rs := range per {
		ph.Recs = append(ph.Recs, rs...)
	}
	if err := ctx.Err(); err != nil {
		return ph, err
	}
	return ph, errors.Join(errs...)
}

// get fetches seeded object key on client c and verifies it.
func (b *Bench) get(ctx context.Context, c, key int, traced bool) Rec {
	o := b.Set[key]
	b.seq[c]++
	rid := ""
	if traced {
		rid = requestID(c, b.seq[c])
	}
	tm, err := b.clients[c].Get(ctx, o.Name, rid, b.Payloads[key])
	return finish(Rec{Kind: OpGet, Client: c, Seq: b.seq[c], Key: key, Obj: o, Bytes: o.Size, Tm: tm, Err: err, Traced: traced})
}

// put stores o on client c; the payload is generated before the clock starts.
func (b *Bench) put(ctx context.Context, c int, o Object, traced bool) (Rec, Placed) {
	body := payload(o)
	b.seq[c]++
	rid := ""
	if traced {
		rid = requestID(c, b.seq[c])
	}
	tm, pl, err := b.clients[c].Put(ctx, o.Name, rid, body)
	return finish(Rec{Kind: OpPut, Client: c, Seq: b.seq[c], Key: -1, Obj: o, Bytes: o.Size, Tm: tm, Err: err, Traced: traced}), pl
}

// finish fills a record's latency: start to verified reply, +Inf on failure.
func finish(r Rec) Rec {
	if r.Err != nil {
		r.Ms = math.Inf(1)
	} else {
		r.Ms = float64(r.Tm.Done.Sub(r.Tm.T0).Nanoseconds()) / 1e6
	}
	return r
}

// AckedBytes is the user bytes the program acknowledged: the seeded set
// plus every PUT acked during the timed phases.
func (b *Bench) AckedBytes() int64 {
	var t int64
	for _, o := range b.Set {
		t += int64(o.Size)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, a := range b.acked {
		t += int64(a.Obj.Size)
	}
	return t
}
