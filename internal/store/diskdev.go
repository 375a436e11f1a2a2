// File-backed device layer: real disks under the store.
//
// Each device owns two files inside the store's data directory:
//
//	dev_NN.data  — cells at elemSize-byte strides, slot = stripe*rows + row
//	dev_NN.crc   — 4-byte CRC32C records at the same slot index
//
// The data file is strided (no per-record headers) so offsets stay
// block-aligned and O_DIRECT can bypass the page cache when the element size
// permits; checksums live in the sidecar so a torn data write and a torn
// checksum write are independently detectable — a mismatch between the two
// is exactly how recovery finds cells a crash half-wrote.
//
// All data-file I/O goes through the device's submission queue (sq.go):
// cell reads and coalesced run reads are OpRead SQEs, commits are OpWrite
// SQEs followed by an OpSync barrier. Durability discipline maps the store's
// two-phase gated writes onto write-then-fsync-then-publish: a seal gates
// every cell, submits every write, fsyncs every touched device, and only
// then advances the sealed-stripe counter; WriteAt, healing, and recovery
// follow the same order. FsyncNever trades that barrier away for throughput
// (the recovery scrub still bounds the damage to torn tails).
//
// Startup recovery (OpenFileBacked) scrubs the directory before serving:
// geometry is derived from the files themselves (never trusted from a
// manifest), every cell is checksum-verified, torn or missing cells are
// rebuilt from their group when the code allows, a parity-inconsistent
// stripe with clean checksums (the WriteAt write-hole) is re-encoded from
// its data cells, and an unrecoverable torn tail is truncated. The store
// that comes back is always decode-clean.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/layout"
)

// errCellMissing reports a read of a slot the backend has never stored.
var errCellMissing = errors.New("store: cell not present")

// devBackend abstracts where a device keeps its cells: the in-memory map
// every store starts with, or a file pair driven through a submission queue.
// Slot indices are stripe*rows + row — dense, device-local, and identical to
// the on-disk record order persist.go has always used.
type devBackend interface {
	// readCell returns slot's payload and its recorded checksum. The caller
	// verifies the checksum (so transient mis-reads and stored corruption
	// are distinguished at one place, Device.read).
	readCell(slot int) (data []byte, crc uint32, err error)
	// writeCell stores payload and checksum for slot.
	writeCell(slot int, data []byte, crc uint32) error
	// corrupt damages slot's stored payload without touching its recorded
	// checksum — the test hook behind Store.CorruptCell.
	corrupt(slot int) error
	// slots returns the exclusive upper bound of occupied slot indices.
	slots() int
	// elements returns how many slots hold a cell.
	elements() int
	// sync flushes everything stored to stable storage (no-op in memory).
	sync() error
	// close releases the backend's resources.
	close() error
}

// runIO is the optional bulk interface backends expose when contiguous
// slots map to contiguous storage: the fan-out executor reads a whole
// coalesced run as one positioned I/O, and seals write a stripe's worth of
// device cells as one.
type runIO interface {
	readRun(slot, count int) (data []byte, crcs []uint32, err error)
	writeRun(slot int, cells [][]byte, crcs []uint32) error
}

// truncater is implemented by backends whose recovery can drop a torn tail.
type truncater interface {
	truncate(slots int) error
}

// ---------------------------------------------------------------------------
// Memory backend — the simulated device every store starts with.

type memBackend struct {
	cells map[int][]byte
	crcs  map[int]uint32
	bound int // exclusive upper bound of occupied slots
}

func newMemBackend() *memBackend {
	return &memBackend{cells: make(map[int][]byte), crcs: make(map[int]uint32)}
}

func (b *memBackend) readCell(slot int) ([]byte, uint32, error) {
	data, ok := b.cells[slot]
	if !ok {
		return nil, 0, errCellMissing
	}
	return data, b.crcs[slot], nil
}

func (b *memBackend) writeCell(slot int, data []byte, crc uint32) error {
	b.cells[slot] = data
	b.crcs[slot] = crc
	if slot >= b.bound {
		b.bound = slot + 1
	}
	return nil
}

func (b *memBackend) corrupt(slot int) error {
	cell, ok := b.cells[slot]
	if !ok {
		return errCellMissing
	}
	for i := range cell {
		cell[i] ^= 0xa5
	}
	return nil
}

func (b *memBackend) slots() int    { return b.bound }
func (b *memBackend) elements() int { return len(b.cells) }
func (b *memBackend) sync() error   { return nil }
func (b *memBackend) close() error  { return nil }

// ---------------------------------------------------------------------------
// File backend.

// FsyncMode selects the durability discipline of a file-backed store.
type FsyncMode string

const (
	// FsyncAlways fsyncs every touched device before a commit publishes —
	// the crash-safe default.
	FsyncAlways FsyncMode = "always"
	// FsyncNever leaves flushing to the OS. Fast, and crash consistency
	// degrades gracefully: the recovery scrub still heals or truncates
	// whatever the crash tore, but recently "committed" stripes may be
	// among the torn.
	FsyncNever FsyncMode = "never"
)

// FileConfig tunes the file-backed device layer. The zero value of every
// field is usable; Dir is required.
type FileConfig struct {
	// Dir is the data directory (created if absent). One dev_NN.data and
	// dev_NN.crc pair per device lives directly inside it.
	Dir string
	// Fsync is the durability discipline; empty means FsyncAlways.
	Fsync FsyncMode
	// Direct requests O_DIRECT on the data files. Honored when the element
	// size is a multiple of 4096 and the filesystem accepts the flag;
	// otherwise the store falls back to buffered I/O (see
	// RecoveryReport.DirectActive).
	Direct bool
	// QueueDepth bounds each device's submission ring (default 64).
	QueueDepth int
	// Workers is the executor pool size per device (default 4).
	Workers int
	// SkipScrub skips the parity-verification pass of startup recovery.
	// Checksum validation, torn-cell healing, and tail truncation still
	// run; only the (read-everything, re-encode-everything) parity check
	// is elided. For large stores whose workload never uses WriteAt.
	SkipScrub bool
}

func (c *FileConfig) fsyncAlways() bool { return c.Fsync != FsyncNever }

// directAlign is the alignment O_DIRECT requires of offsets and buffers.
const directAlign = 4096

// alignedBytes returns an n-byte slice whose backing array is
// directAlign-aligned, for O_DIRECT transfers.
func alignedBytes(n int) []byte {
	raw := make([]byte, n+directAlign)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % directAlign; rem != 0 {
		off = directAlign - int(rem)
	}
	return raw[off : off+n : off+n]
}

func devDataFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.data", d))
}

func devCRCFile(dir string, d int) string {
	return filepath.Join(dir, fmt.Sprintf("dev_%02d.crc", d))
}

// stagingSuffix marks a migration's staging file pair (repair.go): the copy
// of a device being rebalanced onto new storage, promoted over the live pair
// by rename. A *.new pair found at startup is a crashed migration and is
// discarded — the live pair is still authoritative.
const stagingSuffix = ".new"

type fileBackend struct {
	elemSize int
	q        *ioQueue // data file, behind the submission queue
	crcf     *os.File // checksum sidecar, tiny inline writes
	crcs     []uint32 // in-memory checksum index, slot-indexed
	present  []bool
	count    int
	direct   bool
}

// openFileBackend opens (creating if needed) device d's file pair in dir and
// loads the checksum index. With trunc the files are emptied first — the
// fresh-replacement path RecoverDisk uses. Direct I/O is attempted when
// requested and the element size permits; openErr of the O_DIRECT attempt
// falls back to buffered.
func openFileBackend(dir string, d, elemSize int, cfg FileConfig, trunc bool) (*fileBackend, error) {
	return openFileBackendPaths(devDataFile(dir, d), devCRCFile(dir, d), elemSize, cfg, trunc)
}

// openFileBackendPaths is openFileBackend over explicit file paths — the
// migration staging path opens dev_NN.{data,crc}.new pairs this way.
func openFileBackendPaths(dataPath, crcPath string, elemSize int, cfg FileConfig, trunc bool) (*fileBackend, error) {
	flags := os.O_RDWR | os.O_CREATE
	if trunc {
		flags |= os.O_TRUNC
	}
	direct := cfg.Direct && oDirectFlag != 0 && elemSize%directAlign == 0
	var df *os.File
	var err error
	if direct {
		df, err = os.OpenFile(dataPath, flags|oDirectFlag, 0o644)
		if err != nil {
			direct = false
		}
	}
	if df == nil {
		df, err = os.OpenFile(dataPath, flags, 0o644)
		if err != nil {
			return nil, err
		}
	}
	cf, err := os.OpenFile(crcPath, flags, 0o644)
	if err != nil {
		df.Close()
		return nil, err
	}
	b := &fileBackend{
		elemSize: elemSize,
		q:        newIOQueue(df, cfg.Workers, cfg.QueueDepth),
		crcf:     cf,
		direct:   direct,
	}
	if err := b.loadIndex(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// loadIndex reads the checksum sidecar and sizes the slot index to the
// records both files fully cover. Data beyond the sidecar (or vice versa) is
// a torn tail and simply not indexed; recovery truncates it.
func (b *fileBackend) loadIndex() error {
	dInfo, err := b.q.f.Stat()
	if err != nil {
		return err
	}
	cInfo, err := b.crcf.Stat()
	if err != nil {
		return err
	}
	n := int(dInfo.Size() / int64(b.elemSize))
	if c := int(cInfo.Size() / 4); c < n {
		n = c
	}
	b.crcs = make([]uint32, n)
	b.present = make([]bool, n)
	b.count = n
	if n == 0 {
		return nil
	}
	raw := make([]byte, 4*n)
	if _, err := b.crcf.ReadAt(raw, 0); err != nil {
		return err
	}
	for slot := 0; slot < n; slot++ {
		b.crcs[slot] = binary.LittleEndian.Uint32(raw[4*slot:])
		b.present[slot] = true
	}
	return nil
}

func (b *fileBackend) readCell(slot int) ([]byte, uint32, error) {
	if slot < 0 || slot >= len(b.present) || !b.present[slot] {
		return nil, 0, errCellMissing
	}
	buf := b.readBuf(b.elemSize)
	if _, err := b.q.SubmitWait(OpRead, int64(slot)*int64(b.elemSize), buf); err != nil {
		return nil, 0, fmt.Errorf("store: device read slot %d: %w", slot, err)
	}
	return buf, b.crcs[slot], nil
}

// readRun reads count contiguous slots as one positioned I/O, returning the
// concatenated payloads alongside their recorded checksums.
func (b *fileBackend) readRun(slot, count int) ([]byte, []uint32, error) {
	for s := slot; s < slot+count; s++ {
		if s < 0 || s >= len(b.present) || !b.present[s] {
			return nil, nil, errCellMissing
		}
	}
	buf := b.readBuf(count * b.elemSize)
	if _, err := b.q.SubmitWait(OpRead, int64(slot)*int64(b.elemSize), buf); err != nil {
		return nil, nil, fmt.Errorf("store: device read run [%d,+%d): %w", slot, count, err)
	}
	return buf, b.crcs[slot : slot+count], nil
}

// readBuf returns an n-byte read buffer: aligned memory under O_DIRECT,
// otherwise one from ReadBuffers (see readbuf.go for who hands it back).
func (b *fileBackend) readBuf(n int) []byte {
	if b.direct {
		return alignedBytes(n)
	}
	return ReadBuffers.GetShard(n)
}

func (b *fileBackend) grow(bound int) {
	for len(b.present) < bound {
		b.present = append(b.present, false)
		b.crcs = append(b.crcs, 0)
	}
}

func (b *fileBackend) writeCell(slot int, data []byte, crc uint32) error {
	return b.writeRun(slot, [][]byte{data}, []uint32{crc})
}

// writeRun writes contiguous slots as one data-file I/O plus one sidecar
// I/O, then publishes them in the index.
func (b *fileBackend) writeRun(slot int, cells [][]byte, crcs []uint32) error {
	n := len(cells)
	var buf []byte
	if b.direct {
		buf = alignedBytes(n * b.elemSize)[:0]
	} else {
		buf = make([]byte, 0, n*b.elemSize)
	}
	for _, c := range cells {
		if len(c) != b.elemSize {
			return fmt.Errorf("store: cell size %d, device stride %d", len(c), b.elemSize)
		}
		buf = append(buf, c...)
	}
	if _, err := b.q.SubmitWait(OpWrite, int64(slot)*int64(b.elemSize), buf[:n*b.elemSize]); err != nil {
		return fmt.Errorf("store: device write run [%d,+%d): %w", slot, n, err)
	}
	crcRaw := make([]byte, 4*n)
	for i, crc := range crcs {
		binary.LittleEndian.PutUint32(crcRaw[4*i:], crc)
	}
	if _, err := b.crcf.WriteAt(crcRaw, int64(slot)*4); err != nil {
		return fmt.Errorf("store: device checksum write [%d,+%d): %w", slot, n, err)
	}
	b.grow(slot + n)
	for i := 0; i < n; i++ {
		if !b.present[slot+i] {
			b.present[slot+i] = true
			b.count++
		}
		b.crcs[slot+i] = crcs[i]
	}
	return nil
}

func (b *fileBackend) corrupt(slot int) error {
	data, _, err := b.readCell(slot)
	if err != nil {
		return err
	}
	for i := range data {
		data[i] ^= 0xa5
	}
	if _, err := b.q.SubmitWait(OpWrite, int64(slot)*int64(b.elemSize), data); err != nil {
		return err
	}
	return nil
}

func (b *fileBackend) truncate(slots int) error {
	if slots >= len(b.present) {
		return nil
	}
	if err := b.q.f.Truncate(int64(slots) * int64(b.elemSize)); err != nil {
		return err
	}
	if err := b.crcf.Truncate(int64(slots) * 4); err != nil {
		return err
	}
	b.count = 0
	b.present = b.present[:slots]
	b.crcs = b.crcs[:slots]
	for _, p := range b.present {
		if p {
			b.count++
		}
	}
	return nil
}

func (b *fileBackend) slots() int    { return len(b.present) }
func (b *fileBackend) elements() int { return b.count }

func (b *fileBackend) sync() error {
	if _, err := b.q.SubmitWait(OpSync, 0, nil); err != nil {
		return err
	}
	return b.crcf.Sync()
}

func (b *fileBackend) close() error {
	err := b.q.Close()
	if cerr := b.crcf.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Store plumbing: opening, recovery, manifest, close.

// RecoveryReport summarizes what the startup scrub found and fixed.
type RecoveryReport struct {
	// Stripes is the sealed-stripe count the store serves after recovery.
	Stripes int
	// HealedCells counts torn or checksum-failing cells rebuilt from their
	// group and rewritten.
	HealedCells int
	// ReencodedStripes counts parity-inconsistent stripes with clean
	// checksums (the WriteAt write-hole) whose parity was re-encoded from
	// their data cells.
	ReencodedStripes int
	// TruncatedStripes counts unrecoverable torn tail stripes dropped.
	TruncatedStripes int
	// DirectActive reports whether the data files actually opened with
	// O_DIRECT (the request downgrades on unaligned element sizes and
	// filesystems that refuse the flag).
	DirectActive bool
	// ScrubSkipped reports that the parity pass was elided (SkipScrub).
	ScrubSkipped bool
}

// backendManifest is the file backend's best-effort metadata: geometry for
// sanity checks and the user-byte length (recovery re-derives the stripe
// count from the files themselves and never trusts this for it).
type backendManifest struct {
	Scheme   string `json:"scheme"`
	Disks    int    `json:"disks"`
	Rows     int    `json:"rows"`
	ElemSize int    `json:"elem_size"`
	Stripes  int    `json:"stripes"`
	Length   int64  `json:"length"`
}

const backendManifestName = "backend.json"

// OpenFileBacked creates (or reopens) a store whose devices live in
// cfg.Dir, one data/checksum file pair per device, fronted by per-device
// submission queues. Reopening runs the recovery scrub described in the
// package comment; the returned report says what it found. All existing
// store APIs behave identically to the memory backend — tests and tools
// select the backend purely by construction.
func OpenFileBacked(scheme *core.Scheme, elemSize int, cfg FileConfig) (*Store, *RecoveryReport, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("store: file backend needs a data directory")
	}
	st, err := New(scheme, elemSize)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A *.new pair is a migration that crashed before its promote renames:
	// the live dev_NN pair is still authoritative, so the stale staging copy
	// is simply dropped.
	if stray, err := filepath.Glob(filepath.Join(cfg.Dir, "dev_*"+stagingSuffix)); err == nil {
		for _, p := range stray {
			os.Remove(p)
		}
	}
	report := &RecoveryReport{ScrubSkipped: cfg.SkipScrub}
	for d := range st.devices {
		be, err := openFileBackend(cfg.Dir, d, elemSize, cfg, false)
		if err != nil {
			st.closeBackends()
			return nil, nil, err
		}
		st.devices[d].be = be
		report.DirectActive = be.direct
	}
	st.dataDir = cfg.Dir
	st.fsync = cfg.fsyncAlways()
	fileCfg := cfg
	st.newBackendFn = func(d int) (devBackend, error) {
		return openFileBackend(fileCfg.Dir, d, elemSize, fileCfg, true)
	}
	st.newStagingBackendFn = func(d int) (devBackend, error) {
		return openFileBackendPaths(devDataFile(fileCfg.Dir, d)+stagingSuffix,
			devCRCFile(fileCfg.Dir, d)+stagingSuffix, elemSize, fileCfg, true)
	}
	st.promoteStagingFn = func(d int) error {
		// The staging pair is a byte-exact copy of the live pair's cells, so
		// even a crash between the two renames leaves equivalent content
		// under both names. Open fds survive the rename.
		if err := os.Rename(devDataFile(fileCfg.Dir, d)+stagingSuffix, devDataFile(fileCfg.Dir, d)); err != nil {
			return err
		}
		if err := os.Rename(devCRCFile(fileCfg.Dir, d)+stagingSuffix, devCRCFile(fileCfg.Dir, d)); err != nil {
			return err
		}
		return syncDir(fileCfg.Dir)
	}
	st.discardStagingFn = func(d int) error {
		os.Remove(devDataFile(fileCfg.Dir, d) + stagingSuffix)
		os.Remove(devCRCFile(fileCfg.Dir, d) + stagingSuffix)
		return nil
	}
	if err := st.recoverFiles(report, cfg.SkipScrub); err != nil {
		st.closeBackends()
		return nil, nil, err
	}
	// Length: the manifest is trusted only when it agrees with the
	// recovered geometry; otherwise the sealed extent is all we know.
	st.length = int64(st.stripes) * int64(st.stripeBytes())
	if man, err := readBackendManifest(cfg.Dir); err == nil {
		if man.Scheme == scheme.Name() && man.Stripes == st.stripes &&
			man.ElemSize == elemSize && man.Length >= 0 && man.Length <= st.length {
			st.length = man.Length
		}
	}
	if err := syncDir(cfg.Dir); err != nil {
		st.closeBackends()
		return nil, nil, err
	}
	report.Stripes = st.stripes
	return st, report, nil
}

// missingCell locates one cell the recovery scrub counts as erased: absent
// from its device, or failing its recorded checksum.
type missingCell struct {
	idx  int // row*n+col within the stripe's cell slice
	pos  layout.Pos
	disk int
}

// gatherStripe reads every checksum-valid cell of a stripe from the backends
// and lists the rest as missing.
func (s *Store) gatherStripe(stripe int) (cells [][]byte, missing []missingCell) {
	lay := s.scheme.Layout()
	n := s.scheme.N()
	cells = make([][]byte, s.scheme.CellsPerStripe())
	for row := 0; row < s.rows; row++ {
		for col := 0; col < n; col++ {
			pos := layout.Pos{Row: row, Col: col}
			disk := lay.Disk(stripe, col)
			data, crc, err := s.devices[disk].be.readCell(stripe*s.rows + row)
			if err != nil || crc32.Checksum(data, castagnoli) != crc {
				missing = append(missing, missingCell{row*n + col, pos, disk})
				continue
			}
			cells[row*n+col] = data
		}
	}
	return cells, missing
}

// recoverFiles derives the sealed extent from the device files and makes it
// decode-clean: cells whose payload and recorded checksum disagree (torn
// data or torn checksum write) and cells one device lost entirely count as
// erasures and are rebuilt from their group; a stripe every group decodes is
// kept, healed cells rewritten and fsynced. Unrecoverable stripes are legal
// only as the torn tail — possibly several of them, since one crashed commit
// can seal a multi-stripe batch — and are truncated there. An unrecoverable
// stripe *followed by recoverable data* is no crash artifact (seals are
// ordered), so recovery refuses loudly rather than silently drop sealed
// stripes.
func (s *Store) recoverFiles(report *RecoveryReport, skipParity bool) error {
	maxStripes := 0
	for _, dev := range s.devices {
		if st := dev.be.slots() / s.rows; st > maxStripes {
			maxStripes = st
		}
	}
	stripes := 0
	healedDisks := make(map[int]bool)
scan:
	for stripe := 0; stripe < maxStripes; stripe++ {
		cells, missing := s.gatherStripe(stripe)
		if len(missing) == 0 {
			if !skipParity {
				ok, err := s.scheme.VerifyStripe(cells)
				if err != nil {
					return err
				}
				if !ok {
					if err := s.reencodeStripe(stripe, cells, healedDisks); err != nil {
						return err
					}
					report.ReencodedStripes++
				}
			}
			stripes++
			continue
		}
		if err := s.scheme.ReconstructStripe(cells); err != nil {
			// A torn tail may span several stripes (one crashed commit seals a
			// whole batch), but it is always a suffix: if any LATER stripe
			// still decodes, this hole sits in the middle of sealed data and
			// truncating would discard it.
			for later := stripe + 1; later < maxStripes; later++ {
				lcells, _ := s.gatherStripe(later)
				if s.scheme.ReconstructStripe(lcells) == nil {
					return fmt.Errorf("store: recovery: stripe %d unrecoverable but stripe %d still decodes (not a torn tail): %w",
						stripe, later, err)
				}
			}
			report.TruncatedStripes = maxStripes - stripe
			break scan
		}
		for _, mc := range missing {
			cell := cells[mc.idx]
			if err := s.devices[mc.disk].be.writeCell(stripe*s.rows+mc.pos.Row,
				cell, crc32.Checksum(cell, castagnoli)); err != nil {
				return fmt.Errorf("store: recovery: rewrite stripe %d cell (%d,%d): %w",
					stripe, mc.pos.Row, mc.pos.Col, err)
			}
			healedDisks[mc.disk] = true
			report.HealedCells++
		}
		stripes++
	}
	for _, dev := range s.devices {
		if tr, ok := dev.be.(truncater); ok {
			if err := tr.truncate(stripes * s.rows); err != nil {
				return err
			}
		}
	}
	if report.HealedCells > 0 || report.ReencodedStripes > 0 || report.TruncatedStripes > 0 {
		for d := range s.devices {
			if err := s.devices[d].be.sync(); err != nil {
				return err
			}
		}
	}
	s.stripes = stripes
	return nil
}

// reencodeStripe repairs a write-hole stripe: checksums are clean but parity
// disagrees with data, so the data cells are taken as truth and every parity
// cell re-encoded and rewritten.
func (s *Store) reencodeStripe(stripe int, cells [][]byte, healedDisks map[int]bool) error {
	lay := s.scheme.Layout()
	n := s.scheme.N()
	shards := make([][]byte, s.scheme.DataPerStripe())
	for e := range shards {
		pos := lay.DataPos(e)
		shards[e] = cells[pos.Row*n+pos.Col]
	}
	enc, err := s.scheme.EncodeStripe(shards)
	if err != nil {
		return err
	}
	for idx, cell := range enc {
		pos := layout.Pos{Row: idx / n, Col: idx % n}
		cur := cells[idx]
		if cur != nil && string(cur) == string(cell) {
			continue
		}
		disk := lay.Disk(stripe, pos.Col)
		if err := s.devices[disk].be.writeCell(stripe*s.rows+pos.Row,
			cell, crc32.Checksum(cell, castagnoli)); err != nil {
			return fmt.Errorf("store: recovery: re-encode stripe %d cell (%d,%d): %w",
				stripe, pos.Row, pos.Col, err)
		}
		healedDisks[disk] = true
	}
	return nil
}

func readBackendManifest(dir string) (backendManifest, error) {
	var man backendManifest
	raw, err := os.ReadFile(filepath.Join(dir, backendManifestName))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, err
	}
	return man, nil
}

// writeBackendManifest writes the manifest atomically (temp file, fsync,
// rename, directory fsync).
func (s *Store) writeBackendManifest() error {
	man := backendManifest{
		Scheme:   s.scheme.Name(),
		Disks:    s.scheme.N(),
		Rows:     s.rows,
		ElemSize: s.elemSize,
		Stripes:  s.stripes,
		Length:   s.length,
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(s.dataDir, backendManifestName), raw)
}

// atomicWriteFile durably replaces path with data: write a temp sibling,
// fsync it, rename over path, fsync the directory.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations inside it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Backend names the device backend in use: "mem", "file", or "remote".
func (s *Store) Backend() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.remote {
		return "remote"
	}
	if s.dataDir != "" {
		return "file"
	}
	return "mem"
}

// DataDir returns the file backend's data directory ("" for memory).
func (s *Store) DataDir() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dataDir
}

// syncDevices runs the fsync barrier over the given device IDs (all devices
// when ids is nil) under the FsyncAlways discipline. Memory backends and
// FsyncNever stores return immediately. Caller holds mu exclusively.
func (s *Store) syncDevices(ids []int) error {
	if !s.fsync {
		return nil
	}
	start := time.Now()
	if ids == nil {
		for d := range s.devices {
			if err := s.devices[d].be.sync(); err != nil {
				return fmt.Errorf("store: fsync device %d: %w", d, err)
			}
		}
	} else {
		for _, d := range ids {
			if err := s.devices[d].be.sync(); err != nil {
				return fmt.Errorf("store: fsync device %d: %w", d, err)
			}
		}
	}
	s.obs.fsyncBarrier(time.Since(start).Seconds())
	return nil
}

// closeBackends closes every device backend, keeping the first error.
func (s *Store) closeBackends() error {
	var err error
	for _, dev := range s.devices {
		if cerr := dev.be.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close flushes the file backend's manifest and closes every device file
// and submission queue. Buffered partial-stripe bytes are NOT sealed —
// Flush first if they should survive (they were never durable). Close on a
// memory-backed store is a no-op. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.dataDir == "" {
		// Remote-backed stores own no manifest and fsync through the commit
		// barrier, but their backends hold connections that must be released.
		if s.remote {
			return s.closeBackends()
		}
		return nil
	}
	err := s.writeBackendManifest()
	for d := range s.devices {
		if serr := s.devices[d].be.sync(); err == nil {
			err = serr
		}
	}
	if cerr := s.closeBackends(); err == nil {
		err = cerr
	}
	return err
}
