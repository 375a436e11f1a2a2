package store

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/rs"
)

// newRemoteOverDisks builds a remote-backed store whose CellBackends are
// in-process DiskStores — the wiring the gateway uses, minus HTTP.
func newRemoteOverDisks(t *testing.T, scheme *core.Scheme, elem int, cfg CellStoreConfig) (*Store, []*DiskStore) {
	t.Helper()
	disks := make([]*DiskStore, scheme.N())
	for i := range disks {
		disks[i] = NewMemDisk(elem)
	}
	st, _, err := NewWithCellBackends(scheme, elem, cfg, func(d int) (CellBackend, error) {
		return disks[d], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, disks
}

// TestRemoteStoreMatchesLocal: a store over cell backends behaves byte-for-
// byte like a plain mem store across append, read, partial overwrite,
// corruption heal, and disk recovery through the remote replacement factory.
func TestRemoteStoreMatchesLocal(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormECFRM)
	const elem = 64
	remote, _ := newRemoteOverDisks(t, scheme, elem, CellStoreConfig{Sync: true})
	defer remote.Close()
	local := MustNew(scheme, elem)

	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 7*scheme.DataPerStripe()*elem+37)
	rng.Read(payload)
	for _, s := range []*Store{remote, local} {
		if err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if remote.Backend() != "remote" {
		t.Fatalf("Backend() = %q, want remote", remote.Backend())
	}

	check := func(stage string) {
		t.Helper()
		for trial := 0; trial < 8; trial++ {
			off := int64(rng.Intn(len(payload)))
			n := 1 + rng.Intn(len(payload)-int(off))
			rr, err := remote.ReadAt(off, n)
			if err != nil {
				t.Fatalf("%s: remote read: %v", stage, err)
			}
			lr, err := local.ReadAt(off, n)
			if err != nil {
				t.Fatalf("%s: local read: %v", stage, err)
			}
			if !bytes.Equal(rr.Data, lr.Data) {
				t.Fatalf("%s: remote and local bytes differ at %d+%d", stage, off, n)
			}
		}
	}
	check("sealed")

	// Partial overwrite (parity-delta path) through both.
	over := make([]byte, 3*elem)
	rng.Read(over)
	for _, s := range []*Store{remote, local} {
		if err := s.WriteAt(int64(elem), over); err != nil {
			t.Fatal(err)
		}
	}
	copy(payload[elem:], over)
	check("overwritten")

	// Silent corruption heals on read.
	if err := remote.CorruptCell(2, layout.Pos{Row: 0, Col: 1}); err != nil {
		t.Fatal(err)
	}
	check("healed")

	// Fail a disk, then rebuild it through the remote replacement factory.
	if !remote.FailDiskWithinTolerance(3) {
		t.Fatal("could not fail disk 3")
	}
	check("degraded")
	if _, err := remote.RecoverDisk(3); err != nil {
		t.Fatalf("recover over remote backends: %v", err)
	}
	check("recovered")
	if got := remote.FailedDisks(); len(got) != 0 {
		t.Fatalf("failed disks after recover: %v", got)
	}
}

// TestRemoteStoreRecoverExtent: a second store opened over the same cell
// backends with Recover re-derives the sealed extent — the gateway-restart
// path — and serves identical bytes.
func TestRemoteStoreRecoverExtent(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormRotated)
	const elem = 32
	disks := make([]*DiskStore, scheme.N())
	for i := range disks {
		disks[i] = NewMemDisk(elem)
	}
	open := func(d int) (CellBackend, error) { return disks[d], nil }

	st1, _, err := NewWithCellBackends(scheme, elem, CellStoreConfig{Sync: true}, open)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 5*scheme.DataPerStripe()*elem/16)
	if err := st1.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := st1.Flush(); err != nil {
		t.Fatal(err)
	}
	stripes := st1.Stripes()
	// Close the first store WITHOUT closing the mem disks' state (DiskStore
	// close is a no-op for memory) — the "gateway restarted, nodes alive"
	// scenario.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, report, err := NewWithCellBackends(scheme, elem, CellStoreConfig{Sync: true, Recover: true}, open)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if report.Stripes != stripes {
		t.Fatalf("recovered %d stripes, want %d", report.Stripes, stripes)
	}
	got, err := st2.ReadAt(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("recovered store returned different bytes")
	}
}

// TestSetDeviceNodesBias: with a device→node map installed, a busy device
// inflates the bias of every device on its node.
func TestSetDeviceNodesBias(t *testing.T) {
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormStandard)
	st := MustNew(scheme, 32)
	n := scheme.N()
	nodeOf := make([]int, n)
	for d := range nodeOf {
		nodeOf[d] = d % 3 // 3 nodes
	}
	if err := st.SetDeviceNodes(nodeOf); err != nil {
		t.Fatal(err)
	}
	if err := st.SetDeviceNodes(make([]int, n+1)); err == nil {
		t.Fatal("wrong-length map accepted")
	}

	// Simulate inflight load on device 0 (node 0); every node-0 device must
	// inherit it, others stay zero.
	st.devices[0].inflight.Add(5)
	defer st.devices[0].inflight.Add(-5)
	bias := st.inflightBias()
	if bias == nil {
		t.Fatal("bias nil with inflight load")
	}
	for d := 0; d < n; d++ {
		want := 0
		if nodeOf[d] == 0 {
			want = 5
		}
		if bias[d] != want {
			t.Fatalf("bias[%d] = %d, want %d (node %d)", d, bias[d], want, nodeOf[d])
		}
	}
}

// hintedDisk is an in-process remote device with a settable Reachability
// report. down is what it reports; dead makes every read fail the way a
// refused dial does. reads counts the ReadRun calls it receives.
type hintedDisk struct {
	*DiskStore
	down, dead atomic.Bool
	reads      atomic.Int64
}

func (h *hintedDisk) Unreachable() bool { return h.down.Load() }

func (h *hintedDisk) ReadRun(slot, count int) ([]byte, []uint32, error) {
	h.reads.Add(1)
	if h.dead.Load() {
		return nil, nil, errors.New("connect: connection refused")
	}
	return h.DiskStore.ReadRun(slot, count)
}

// newHintedStore builds a remote-backed store over hintedDisks holding
// payload, with metrics installed.
func newHintedStore(t *testing.T, payload []byte) (*Store, []*hintedDisk, *Metrics) {
	t.Helper()
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormECFRM)
	const elem = 64
	disks := make([]*hintedDisk, scheme.N())
	for i := range disks {
		disks[i] = &hintedDisk{DiskStore: NewMemDisk(elem)}
	}
	st, _, err := NewWithCellBackends(scheme, elem, CellStoreConfig{}, func(d int) (CellBackend, error) {
		return disks[d], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry(), scheme.N())
	st.SetMetrics(m)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st, disks, m
}

var hintExecutors = map[string]ReadOptions{
	"fanout":     {},
	"sequential": {Sequential: true},
	"concurrent": {Concurrency: 4},
	"hedged":     {Hedge: HedgeConfig{Enabled: true}},
}

// TestUnreachableHintPlansAround: a device whose backend reports itself
// unreachable is planned around from the first pass — reads come back
// byte-identical with no replan and no request to that device, in every
// executor, and HEAD-style planning agrees.
func TestUnreachableHintPlansAround(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	payload := make([]byte, 6*4*64*4+21)
	rng.Read(payload)
	st, disks, m := newHintedStore(t, payload)
	defer st.Close()

	disks[1].down.Store(true)
	disks[1].dead.Store(true)
	for name, opts := range hintExecutors {
		for trial := 0; trial < 12; trial++ {
			off := int64(rng.Intn(len(payload)))
			n := 1 + rng.Intn(len(payload)-int(off))
			res, err := st.ReadAtCtx(context.Background(), off, n, opts)
			if err != nil {
				t.Fatalf("%s: read %d+%d: %v", name, off, n, err)
			}
			if !bytes.Equal(res.Data, payload[off:off+int64(n)]) {
				t.Fatalf("%s: read %d+%d: wrong bytes", name, off, n)
			}
			for _, a := range res.Plan.Reads {
				if a.Disk == 1 {
					t.Fatalf("%s: plan reads hinted-down disk 1", name)
				}
			}
		}
	}
	if got := m.replans.Value(); got != 0 {
		t.Fatalf("replans = %d, want 0", got)
	}
	if got := disks[1].reads.Load(); got != 0 {
		t.Fatalf("hinted-down disk received %d reads", got)
	}
	plan, err := st.PlanRead(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Reads {
		if a.Disk == 1 {
			t.Fatal("PlanRead plans through hinted-down disk 1")
		}
	}
}

// TestStaleUnreachableHintFallsBack: the hint never costs a read. With one
// disk really failed and two more wrongly reported unreachable, hint ∪
// failed exceeds RS(4,2)'s tolerance; reads drop the hint, plan from the
// failed disk alone, and return the right bytes from the hinted devices.
func TestStaleUnreachableHintFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	payload := make([]byte, 6*4*64*3)
	rng.Read(payload)
	st, disks, m := newHintedStore(t, payload)
	defer st.Close()

	st.FailDisk(0)
	disks[2].down.Store(true)
	disks[4].down.Store(true)
	for name, opts := range hintExecutors {
		res, err := st.ReadAtCtx(context.Background(), 0, len(payload), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("%s: wrong bytes", name)
		}
	}
	if disks[2].reads.Load() == 0 || disks[4].reads.Load() == 0 {
		t.Fatal("fallback plan never read the wrongly hinted disks")
	}
	if got := m.replans.Value(); got != 0 {
		t.Fatalf("replans = %d, want 0", got)
	}

	// A hint that is right about one of them still ends in a correct read:
	// the fallback plan trips over the dead disk and the replan avoids it.
	disks[4].dead.Store(true)
	res, err := st.ReadAt(0, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("wrong bytes with hinted disk 4 really dead")
	}
}
