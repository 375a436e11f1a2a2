// DiskStore: the data-node side of the cluster split.
//
// A data node owns a set of per-(group,disk) cell extents and serves them
// over HTTP (internal/datanode). DiskStore is that extent: the same
// memBackend / fileBackend machinery a local Store uses — including the
// io_uring-shaped submission queues and O_DIRECT discipline of the file
// backend — wrapped in its own lock, because a node's HTTP handlers hit one
// disk concurrently and the backends themselves rely on the owning Store's
// lock for index safety. DiskStore implements CellBackend, so an in-process
// node can be wired straight into NewWithCellBackends in tests.
package store

import (
	"fmt"
	"sync"
)

// DiskStore is one device's cell extent served by a data node: slot-indexed
// elemSize cells with recorded checksums, in memory or on a data/crc file
// pair. Checksums are stored verbatim and never verified here — integrity
// checking stays on the store/gateway side so a node cannot mask torn
// writes. All methods are safe for concurrent use.
type DiskStore struct {
	mu   sync.RWMutex
	be   devBackend
	elem int
}

// NewMemDisk creates an in-memory DiskStore for elemSize-byte cells.
func NewMemDisk(elemSize int) *DiskStore {
	return &DiskStore{be: newMemBackend(), elem: elemSize}
}

// OpenFileDisk creates (or reopens) a file-backed DiskStore on the given
// data/checksum file pair, fronted by a per-disk submission queue. cfg.Dir
// is ignored; the paths name the files directly.
func OpenFileDisk(dataPath, crcPath string, elemSize int, cfg FileConfig) (*DiskStore, error) {
	be, err := openFileBackendPaths(dataPath, crcPath, elemSize, cfg, false)
	if err != nil {
		return nil, err
	}
	return &DiskStore{be: be, elem: elemSize}, nil
}

// ElemSize returns the cell size in bytes.
func (ds *DiskStore) ElemSize() int { return ds.elem }

// ReadRun returns count cells starting at slot as one contiguous buffer plus
// each cell's recorded checksum. The buffer is the caller's, drawn from
// ReadBuffers (or aligned memory under O_DIRECT): hand it back with
// ReadBuffers.PutShard once it has been written out. Any slot in the run
// the disk never stored fails the whole run with ErrCellMissing, before any
// buffer is allocated: a run reaching past the occupied extent is refused
// outright, so count alone can never size an allocation.
func (ds *DiskStore) ReadRun(slot, count int) ([]byte, []uint32, error) {
	if slot < 0 || count < 1 {
		return nil, nil, fmt.Errorf("store: disk read run [%d,+%d): bad range", slot, count)
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if count > ds.be.slots()-slot {
		return nil, nil, errCellMissing
	}
	if r, ok := ds.be.(runIO); ok {
		return r.readRun(slot, count)
	}
	// Memory cells are the disk's live storage: the caller gets a copy.
	data := ReadBuffers.GetShard(count * ds.elem)[:0]
	crcs := make([]uint32, 0, count)
	for i := 0; i < count; i++ {
		cell, crc, err := ds.be.readCell(slot + i)
		if err != nil {
			return nil, nil, err
		}
		data = append(data, cell...)
		crcs = append(crcs, crc)
	}
	return data, crcs, nil
}

// WriteRun stores len(crcs) contiguous cells (flattened into data) and their
// checksums starting at slot.
func (ds *DiskStore) WriteRun(slot int, data []byte, crcs []uint32) error {
	count := len(crcs)
	if slot < 0 || count < 1 || len(data) != count*ds.elem {
		return fmt.Errorf("store: disk write run [%d,+%d): %d bytes does not match %d cells of %d",
			slot, count, len(data), count, ds.elem)
	}
	cells := make([][]byte, count)
	for i := range cells {
		cells[i] = data[i*ds.elem : (i+1)*ds.elem : (i+1)*ds.elem]
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if r, ok := ds.be.(runIO); ok {
		return r.writeRun(slot, cells, crcs)
	}
	for i := range cells {
		// The mem backend keeps the slice it is handed; copy so callers can
		// reuse request buffers.
		if err := ds.be.writeCell(slot+i, append([]byte(nil), cells[i]...), crcs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sync makes everything written so far durable (fsync through the disk's
// submission queue; no-op in memory).
func (ds *DiskStore) Sync() error {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.be.sync()
}

// Truncate drops every slot at or above the bound.
func (ds *DiskStore) Truncate(slots int) error {
	if slots < 0 {
		return fmt.Errorf("store: disk truncate to %d slots", slots)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if tr, ok := ds.be.(truncater); ok {
		return tr.truncate(slots)
	}
	// Memory backend: rebuild below the bound.
	mem, ok := ds.be.(*memBackend)
	if !ok {
		return fmt.Errorf("store: disk backend cannot truncate")
	}
	next := newMemBackend()
	for s, cell := range mem.cells {
		if s < slots {
			next.cells[s] = cell
			next.crcs[s] = mem.crcs[s]
			if s >= next.bound {
				next.bound = s + 1
			}
		}
	}
	ds.be = next
	return nil
}

// Slots returns the exclusive upper bound of occupied slot indices.
func (ds *DiskStore) Slots() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.be.slots()
}

// Elements returns how many slots hold a cell.
func (ds *DiskStore) Elements() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.be.elements()
}

// Close releases the disk's files and submission queue.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.be.close()
}

// compile-time check: an in-process DiskStore is a valid remote device.
var _ CellBackend = (*DiskStore)(nil)
