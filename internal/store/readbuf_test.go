package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
)

// randomRange draws an in-extent read of a total-byte store: a third are at
// most two cells long, so their assembled outputs share ReadBuffers size
// classes with cells and short runs; the rest span up to a dozen cells.
func randomRange(r *rand.Rand, total, elem int) (off, length int) {
	if r.Intn(3) == 0 {
		length = 1 + r.Intn(2*elem)
	} else {
		length = 1 + r.Intn(min(total, 12*elem))
	}
	return r.Intn(total - length + 1), length
}

// readReleased runs workers goroutines of n fan-out reads each (inline and
// threaded) against st. Every read must return payload's bytes without
// healing anything — a buffer recycled while still in use, or device
// storage handed to the arena, shows up as wrong bytes or as a cell failing
// its checksum — and is released as soon as it is checked.
func readReleased(st *Store, payload []byte, workers, n int, seed int64) error {
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < n; i++ {
				off, length := randomRange(r, len(payload), st.ElementSize())
				opts := ReadOptions{}
				if i%2 == 1 {
					opts.Concurrency = 4
				}
				res, err := st.ReadAtCtx(context.Background(), int64(off), length, opts)
				if err != nil {
					errc <- fmt.Errorf("read [%d,+%d): %v", off, length, err)
					return
				}
				if res.Healed != 0 || !bytes.Equal(res.Data, payload[off:off+length]) {
					errc <- fmt.Errorf("read [%d,+%d): healed %d cells, byte-identical %v",
						off, length, res.Healed, bytes.Equal(res.Data, payload[off:off+length]))
					return
				}
				res.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// heldRead is an un-released read result and the bytes it must keep.
type heldRead struct {
	res  *ReadResult
	want []byte
}

// holdReads takes n reads of random ranges and never releases them.
func holdReads(t *testing.T, st *Store, payload []byte, n int, seed int64) []heldRead {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]heldRead, n)
	for i := range out {
		off, length := randomRange(r, len(payload), st.ElementSize())
		res, err := st.ReadAt(int64(off), length)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = heldRead{res, payload[off : off+length]}
	}
	return out
}

func checkHeld(t *testing.T, held []heldRead) {
	t.Helper()
	for i, h := range held {
		if !bytes.Equal(h.res.Data, h.want) {
			t.Fatalf("held result %d changed under concurrent released reads", i)
		}
	}
}

// TestReadBuffersHeldResults: on a file-backed store, whose device runs and
// assembled objects all cycle through ReadBuffers, 32 results that are never
// released stay byte-identical while thousands of concurrent reads — healthy,
// then degraded — recycle their buffers.
func TestReadBuffersHeldResults(t *testing.T) {
	sch := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem = 256
	st, _, err := OpenFileBacked(sch, elem, FileConfig{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := make([]byte, 16*sch.DataPerStripe()*elem)
	rand.New(rand.NewSource(71)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}

	held := holdReads(t, st, payload, 16, 1)
	if err := readReleased(st, payload, 4, 250, 10); err != nil {
		t.Fatal(err)
	}
	if !st.FailDiskWithinTolerance(2) {
		t.Fatal("could not fail disk 2")
	}
	held = append(held, holdReads(t, st, payload, 16, 2)...)
	if err := readReleased(st, payload, 4, 250, 20); err != nil {
		t.Fatal(err)
	}
	checkHeld(t, held)
}

// TestReadBuffersNeverTakeMemCells: memory-backend cells are the device's
// live storage, so no read may hand one to the arena. After thousands of
// released reads, healthy and degraded, every byte reads back identical and
// a rebuilt disk scrubs clean.
func TestReadBuffersNeverTakeMemCells(t *testing.T) {
	sch := core.MustScheme(lrc.Must(6, 2, 2), layout.FormECFRM)
	const elem = 256
	st := MustNew(sch, elem)
	payload := make([]byte, 16*sch.DataPerStripe()*elem)
	rand.New(rand.NewSource(72)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}

	if err := readReleased(st, payload, 4, 1000, 30); err != nil {
		t.Fatal(err)
	}
	if !st.FailDiskWithinTolerance(1) {
		t.Fatal("could not fail disk 1")
	}
	if err := readReleased(st, payload, 4, 1000, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RecoverDisk(1); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, st); !bytes.Equal(got, payload) {
		t.Fatal("store contents changed under released reads")
	}
	if bad, err := st.Scrub(); err != nil || len(bad) != 0 {
		t.Fatalf("scrub: bad stripes %v, err %v", bad, err)
	}
}

// TestReadBuffersReplanMidPass: a remote device dies while reads are in
// flight, so passes that already hold run buffers from the live devices
// replan around it. Every read stays byte-identical, and results held from
// before the kill never change. `make ownership` runs this under -race
// -count=10.
func TestReadBuffersReplanMidPass(t *testing.T) {
	payload := make([]byte, 6*4*64*16)
	rand.New(rand.NewSource(73)).Read(payload)
	st, disks, m := newHintedStore(t, payload)
	defer st.Close()

	held := holdReads(t, st, payload, 32, 3)
	done := make(chan error, 1)
	go func() { done <- readReleased(st, payload, 3, 300, 50) }()
	for disks[0].reads.Load() < 50 {
		runtime.Gosched()
	}
	disks[3].dead.Store(true) // not hinted down: reads find out mid-pass
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.replans.Value() == 0 {
		t.Fatal("no read replanned around the killed device")
	}
	checkHeld(t, held)
}

// TestReadBuffersSteadyStateAllocs is the allocation gate: once the arena is
// warm, a fan-out read of a file-backed store — healthy and degraded — that
// releases its result allocates under 5% of the bytes it returns. Device
// runs, decoded shards and the assembled object are all recycled; what
// remains is the plan and per-read bookkeeping.
func TestReadBuffersSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so allocation is not steady")
	}
	sch := core.MustScheme(rs.Must(6, 3), layout.FormECFRM)
	const elem = 64 << 10
	st, _, err := OpenFileBacked(sch, elem, FileConfig{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := make([]byte, 4*sch.DataPerStripe()*elem)
	rand.New(rand.NewSource(74)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	const length = 16 * elem // a 1 MiB object
	measure := func(name string) {
		t.Helper()
		read := func() {
			res, err := st.ReadAtCtx(context.Background(), elem/2, length, ReadOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(res.Data, payload[elem/2:elem/2+length]) {
				t.Fatalf("%s: wrong bytes", name)
			}
			res.Release()
		}
		for i := 0; i < 10; i++ {
			read()
		}
		const reads = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
		t.Logf("%s: %.0f bytes allocated per %d-byte read (%.2f%%)", name, perRead, length, 100*perRead/length)
		if perRead > 0.05*length {
			t.Errorf("%s: %.0f bytes allocated per %d-byte read, want under 5%%", name, perRead, length)
		}
	}
	measure("healthy")
	if !st.FailDiskWithinTolerance(0) {
		t.Fatal("could not fail disk 0")
	}
	measure("degraded")
}
