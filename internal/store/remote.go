// Remote cell backends: the seam that turns a single-process Store into the
// access half of a networked cluster.
//
// A CellBackend is a device whose cells live somewhere else — in practice on
// a data node reached over HTTP (internal/gateway), or inside an in-process
// node during tests. NewWithCellBackends builds a Store whose devices all
// delegate to such backends, which means the *entire* existing machinery —
// the fan-out executor's coalesced runs, hedged reads racing parity rebuild,
// degraded replanning on ErrUnavailable, group-commit WAL sealing through
// the two-phase gate, heal, scrub, and startup recovery — operates across
// the network unchanged. A dead node surfaces as ErrUnavailable from its
// backend, exactly like a failed local disk, and the replan loop routes
// around it; a backend that already knows its node is down (Reachability)
// lets reads plan around it from the first pass.
package store

import (
	"fmt"

	"repro/internal/core"
)

// ErrCellMissing is the sentinel a CellBackend returns (possibly wrapped)
// for a read of a slot it has never stored. It is distinct from transport
// errors: a missing cell means "ask the group to reconstruct", an arbitrary
// error means "this device is unavailable, replan".
var ErrCellMissing = errCellMissing

// CellBackend is a device whose cells live remotely. Slot indices are the
// same dense stripe*rows+row layout every backend uses; data buffers are
// count contiguous elemSize cells. Implementations must be safe for
// concurrent use — the fan-out executor issues reads from many goroutines.
type CellBackend interface {
	// ReadRun returns count cells starting at slot as one contiguous buffer
	// of count*elemSize bytes plus each cell's recorded checksum. A slot the
	// backend never stored fails with an error wrapping ErrCellMissing. The
	// buffer becomes the store's, which may recycle it into ReadBuffers: an
	// implementation must never return memory it keeps or reuses.
	ReadRun(slot, count int) (data []byte, crcs []uint32, err error)
	// WriteRun stores count contiguous cells (flattened into data) and their
	// checksums starting at slot. Checksums are stored verbatim, never
	// recomputed — the store side owns integrity.
	WriteRun(slot int, data []byte, crcs []uint32) error
	// Sync makes everything written so far durable on the remote device (the
	// commit barrier of the two-phase gate, forwarded node-side).
	Sync() error
	// Truncate drops every slot at or above the bound (recovery's torn-tail
	// cut, and rebuilds clearing a replacement device).
	Truncate(slots int) error
	// Slots returns the exclusive upper bound of occupied slot indices.
	Slots() int
	// Elements returns how many slots hold a cell.
	Elements() int
	// Close releases the backend's resources (connections, files).
	Close() error
}

// Reachability is an optional CellBackend capability, probed the way the
// bulk runIO path is. A backend that already knows its far end is down — a
// health prober saw the node die — reports it, and reads plan around the
// device from their first pass instead of discovering the outage with a
// failed request and a replan. The report is a hint only: a read whose plan
// becomes infeasible with the hinted devices excluded plans without them.
type Reachability interface {
	Unreachable() bool
}

// cellAdapter wires a CellBackend into the unexported devBackend seam,
// including the bulk runIO and truncater capabilities, so Device treats a
// remote disk exactly like a local file pair.
type cellAdapter struct {
	cb   CellBackend
	elem int
}

func (a *cellAdapter) readCell(slot int) ([]byte, uint32, error) {
	data, crcs, err := a.cb.ReadRun(slot, 1)
	if err != nil {
		return nil, 0, err
	}
	if len(data) != a.elem || len(crcs) != 1 {
		return nil, 0, fmt.Errorf("store: remote cell %d: malformed response (%d bytes, %d crcs)",
			slot, len(data), len(crcs))
	}
	return data[:a.elem:a.elem], crcs[0], nil
}

func (a *cellAdapter) writeCell(slot int, data []byte, crc uint32) error {
	if err := a.cb.WriteRun(slot, data, []uint32{crc}); err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return nil
}

// corrupt damages the stored payload while re-writing the original recorded
// checksum — no node-side endpoint needed, since nodes store checksums
// verbatim.
func (a *cellAdapter) corrupt(slot int) error {
	data, crcs, err := a.cb.ReadRun(slot, 1)
	if err != nil {
		return err
	}
	flipped := append([]byte(nil), data...)
	flipped[0] ^= 0xFF
	return a.cb.WriteRun(slot, flipped, crcs)
}

func (a *cellAdapter) readRun(slot, count int) ([]byte, []uint32, error) {
	data, crcs, err := a.cb.ReadRun(slot, count)
	if err != nil {
		return nil, nil, err
	}
	if len(data) != count*a.elem || len(crcs) != count {
		return nil, nil, fmt.Errorf("store: remote run %d+%d: malformed response (%d bytes, %d crcs)",
			slot, count, len(data), len(crcs))
	}
	return data, crcs, nil
}

// writeRun (like writeCell and sync) wraps transport failures in
// ErrUnavailable: a node that cannot be reached is a transiently unavailable
// device, so WAL commit aborts surface to clients as 503 + Retry-After, not
// opaque 500s.
func (a *cellAdapter) writeRun(slot int, cells [][]byte, crcs []uint32) error {
	flat := make([]byte, 0, len(cells)*a.elem)
	for _, c := range cells {
		flat = append(flat, c...)
	}
	if err := a.cb.WriteRun(slot, flat, crcs); err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return nil
}

func (a *cellAdapter) truncate(slots int) error { return a.cb.Truncate(slots) }
func (a *cellAdapter) slots() int               { return a.cb.Slots() }
func (a *cellAdapter) elements() int            { return a.cb.Elements() }
func (a *cellAdapter) close() error             { return a.cb.Close() }

func (a *cellAdapter) sync() error {
	if err := a.cb.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return nil
}

// CellStoreConfig configures a remote-backed store.
type CellStoreConfig struct {
	// Sync runs the commit-path durability barrier: after a seal's writes,
	// CellBackend.Sync is called on every touched device before the stripe
	// is published — the node-side fsync of the two-phase gate.
	Sync bool
	// Recover re-derives the sealed extent from the backends at open (the
	// gateway-restart path): torn cells healed from their group, write-hole
	// stripes re-encoded, torn tails truncated — the same scrub
	// OpenFileBacked runs over local files.
	Recover bool
	// SkipScrub elides Recover's parity verification pass over clean-looking
	// stripes.
	SkipScrub bool
}

// NewWithCellBackends creates a store whose devices delegate to the
// CellBackends returned by open(disk). All store APIs — appends, fan-out and
// hedged reads, degraded planning, WAL commit, heal, rebuild — behave
// identically to local backends; Backend() reports "remote". open is also
// retained as the device factory RecoverDisk uses for a replacement backend
// (the returned backend is truncated to empty first).
func NewWithCellBackends(scheme *core.Scheme, elemSize int, cfg CellStoreConfig, open func(disk int) (CellBackend, error)) (*Store, *RecoveryReport, error) {
	st, err := New(scheme, elemSize)
	if err != nil {
		return nil, nil, err
	}
	opened := 0
	for d := range st.devices {
		cb, err := open(d)
		if err != nil {
			for i := 0; i < opened; i++ {
				st.devices[i].be.close()
			}
			return nil, nil, fmt.Errorf("store: open remote device %d: %w", d, err)
		}
		st.devices[d].be = &cellAdapter{cb: cb, elem: elemSize}
		opened++
	}
	st.remote = true
	st.fsync = cfg.Sync
	st.newBackendFn = func(d int) (devBackend, error) {
		cb, err := open(d)
		if err != nil {
			return nil, err
		}
		if err := cb.Truncate(0); err != nil {
			cb.Close()
			return nil, err
		}
		return &cellAdapter{cb: cb, elem: elemSize}, nil
	}
	report := &RecoveryReport{ScrubSkipped: cfg.SkipScrub}
	if cfg.Recover {
		if err := st.recoverFiles(report, cfg.SkipScrub); err != nil {
			st.closeBackends()
			return nil, nil, err
		}
		st.length = int64(st.stripes) * int64(st.stripeBytes())
	}
	report.Stripes = st.stripes
	return st, report, nil
}

// unreachableLocked returns the healthy devices whose backend reports itself
// unreachable (the Reachability hint), ascending. Local stores have none.
func (s *Store) unreachableLocked() []int {
	var out []int
	for _, d := range s.devices {
		if d.failed {
			continue
		}
		if a, ok := d.be.(*cellAdapter); ok {
			if r, ok := a.cb.(Reachability); ok && r.Unreachable() {
				out = append(out, d.id)
			}
		}
	}
	return out
}

// SetDeviceNodes tells the degraded-read planner which placement node serves
// each device. When set, the inflight bias fed to PlanDegradedReadBiased is
// aggregated per node — every disk of a busy or slow node carries that
// node's whole queue depth — because in the networked regime contention
// lives at the node (its NIC, its process), not the individual disk.
func (s *Store) SetDeviceNodes(nodeOf []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodeOf == nil {
		s.nodeOf = nil
		return nil
	}
	if len(nodeOf) != len(s.devices) {
		return fmt.Errorf("store: device-node map has %d entries for %d devices", len(nodeOf), len(s.devices))
	}
	s.nodeOf = append([]int(nil), nodeOf...)
	return nil
}
