// Package nodeapi defines the wire protocol between the access gateway and
// the data nodes: URL shapes, the binary cell-run framing, and the JSON
// status types. Both internal/datanode (server) and internal/gateway
// (client) import it, so the two sides cannot drift.
//
// Cell payloads travel in a fixed little-endian binary frame rather than
// JSON — a run is raw device bytes plus checksums, and base64ing megabytes
// of cells through a JSON encoder would dominate the read path:
//
//	offset  size          field
//	0       4             magic "ECRN"
//	4       4             element size (uint32 LE)
//	8       4             cell count   (uint32 LE)
//	12      4*count       per-cell CRC32-C (uint32 LE each)
//	12+4c   elem*count    cell payloads, concatenated in slot order
//
// Checksums ride beside the data end to end: the node stores them verbatim
// and the gateway verifies them, so a torn write on a node disk or a flipped
// bit on the wire both surface as ErrCorrupt at the store layer, never as
// silently wrong object bytes.
//
// A frame is length-framed on the wire: its size follows from the element
// size and the cell count alone (FrameLen), and both directions send it
// with that Content-Length, never chunked. The sender writes the prefix
// (AppendRunHeader) and then the payload straight from its own buffer, so
// the frame is never assembled in one piece. The receiver reads the prefix
// and then the payload straight into a buffer it supplies (ReadFrame): no
// buffer growth, no second copy, and a body that ends early or runs long is
// rejected.
package nodeapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic starts every cell-run frame.
const Magic = "ECRN"

// runHeaderLen is the fixed prefix before the CRC array.
const runHeaderLen = 12

// MissingHeader marks a 404 that means "slot never stored" — as opposed to
// a 404 from a wrong URL — so the client can map it to store.ErrCellMissing
// (reconstruct from the group) instead of ErrUnavailable (replan around the
// node).
const MissingHeader = "X-Ecfrm-Missing"

// maxRunCells bounds the cell count a frame may declare.
const maxRunCells = 1 << 22

// MaxRunBytes bounds one cell-run frame in either direction (64 MiB), so a
// bad client cannot balloon node memory. Nodes refuse a larger run with 413;
// clients split a longer run into frames of at most MaxRunCells cells. A
// variable only so tests can exercise the split with small runs.
var MaxRunBytes = 64 << 20

// MaxRunCells is the most cells of elem bytes one frame may carry within
// MaxRunBytes — never less than one.
func MaxRunCells(elem int) int {
	return max(1, min((MaxRunBytes-runHeaderLen)/(4+elem), maxRunCells))
}

// FrameLen is the exact byte length of a frame carrying count cells of elem
// bytes each.
func FrameLen(elem, count int) int { return runHeaderLen + (4+elem)*count }

// AppendRunHeader appends a frame's prefix — magic, element size, cell count
// and the per-cell checksums — to dst. The count cells' payloads, in slot
// order, complete the frame.
func AppendRunHeader(dst []byte, elem int, crcs []uint32) []byte {
	dst = append(dst, Magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(elem))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(crcs)))
	for _, c := range crcs {
		dst = binary.LittleEndian.AppendUint32(dst, c)
	}
	return dst
}

// EncodeRun frames count cells (flattened into data, count == len(crcs))
// with their checksums, in one buffer.
func EncodeRun(elem int, data []byte, crcs []uint32) []byte {
	out := AppendRunHeader(make([]byte, 0, FrameLen(elem, len(crcs))), elem, crcs)
	return append(out, data...)
}

// ReadFrame reads one frame of len(data)/elem cells of elem bytes from r:
// the prefix into a small buffer of its own, the payload straight into data,
// which the caller supplies and owns. It applies DecodeRun's checks — magic,
// element size, the cell count the caller asked for — and a body that ends
// before the frame does, or carries a byte after it, is an error. On error
// no checksums are returned and data's contents are unspecified.
func ReadFrame(r io.Reader, elem int, data []byte) (crcs []uint32, err error) {
	if elem < 1 || len(data)%elem != 0 {
		return nil, fmt.Errorf("nodeapi: %d-byte payload is not whole %d-byte cells", len(data), elem)
	}
	count := len(data) / elem
	if count < 1 || count > maxRunCells {
		return nil, fmt.Errorf("nodeapi: cell count %d out of range", count)
	}
	want := FrameLen(elem, count)
	hdr := make([]byte, runHeaderLen+4*count)
	if n, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("nodeapi: cell-run frame truncated at %d of %d bytes: %w", n, want, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("nodeapi: bad cell-run frame magic %q", hdr[:4])
	}
	if got := int(binary.LittleEndian.Uint32(hdr[4:])); got != elem {
		return nil, fmt.Errorf("nodeapi: element size %d, want %d", got, elem)
	}
	if got := int(binary.LittleEndian.Uint32(hdr[8:])); got != count {
		return nil, fmt.Errorf("nodeapi: frame declares %d cells, want %d", got, count)
	}
	if n, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("nodeapi: cell-run frame truncated at %d of %d bytes: %w", len(hdr)+n, want, err)
	}
	var extra [1]byte
	if n, err := io.ReadFull(r, extra[:]); n > 0 {
		return nil, fmt.Errorf("nodeapi: cell-run body longer than its %d-byte frame", want)
	} else if !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("nodeapi: cell-run frame: %w", err)
	}
	crcs = make([]uint32, count)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(hdr[runHeaderLen+4*i:])
	}
	return crcs, nil
}

// DecodeRun parses a cell-run frame, validating the framing invariants
// (magic, element size agreement, exact length).
func DecodeRun(body []byte, wantElem int) (data []byte, crcs []uint32, err error) {
	if len(body) < runHeaderLen || string(body[:4]) != Magic {
		return nil, nil, fmt.Errorf("nodeapi: bad cell-run frame (%d bytes)", len(body))
	}
	elem := int(binary.LittleEndian.Uint32(body[4:]))
	count := int(binary.LittleEndian.Uint32(body[8:]))
	if elem != wantElem {
		return nil, nil, fmt.Errorf("nodeapi: element size %d, want %d", elem, wantElem)
	}
	if count < 1 || count > maxRunCells {
		return nil, nil, fmt.Errorf("nodeapi: cell count %d out of range", count)
	}
	want := FrameLen(elem, count)
	if len(body) != want {
		return nil, nil, fmt.Errorf("nodeapi: frame is %d bytes, want %d for %d cells of %d",
			len(body), want, count, elem)
	}
	crcs = make([]uint32, count)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(body[runHeaderLen+4*i:])
	}
	return body[runHeaderLen+4*count:], crcs, nil
}

// CellsPath is the cell-run endpoint for one (group, disk) extent:
// GET ?slot=&count= reads a run, PUT ?slot= writes the framed body.
func CellsPath(group, disk int) string {
	return fmt.Sprintf("/cells/%d/%d", group, disk)
}

// SyncPath is the durability barrier endpoint (POST).
func SyncPath(group, disk int) string {
	return fmt.Sprintf("/sync/%d/%d", group, disk)
}

// TruncatePath is the truncation endpoint (POST ?slots=).
func TruncatePath(group, disk int) string {
	return fmt.Sprintf("/truncate/%d/%d", group, disk)
}

// MetaPath is the per-extent geometry endpoint (GET → DiskMeta).
func MetaPath(group, disk int) string {
	return fmt.Sprintf("/cells/%d/%d/meta", group, disk)
}

// StatusPath is the whole-node status endpoint (GET → NodeStatus).
const StatusPath = "/node/status"

// DiskMeta is one extent's geometry.
type DiskMeta struct {
	Group    int `json:"group"`
	Disk     int `json:"disk"`
	Slots    int `json:"slots"`    // exclusive upper bound of occupied slots
	Elements int `json:"elements"` // slots actually holding a cell
}

// NodeStatus is the node's self-description.
type NodeStatus struct {
	Backend  string     `json:"backend"` // "mem" or "file"
	ElemSize int        `json:"elem_size"`
	Draining bool       `json:"draining"`
	Disks    []DiskMeta `json:"disks"`
}
