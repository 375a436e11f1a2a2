package nodeapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestRunFrameLayout pins the wire layout byte for byte: magic, element size,
// count, the checksums, then the payloads.
func TestRunFrameLayout(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6}
	crcs := []uint32{0x04030201, 0xa0b0c0d0}
	want := []byte{
		'E', 'C', 'R', 'N',
		3, 0, 0, 0,
		2, 0, 0, 0,
		0x01, 0x02, 0x03, 0x04,
		0xd0, 0xc0, 0xb0, 0xa0,
		1, 2, 3, 4, 5, 6,
	}
	got := EncodeRun(3, data, crcs)
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeRun = % x\nwant       % x", got, want)
	}
	if FrameLen(3, 2) != len(want) {
		t.Fatalf("FrameLen(3, 2) = %d, want %d", FrameLen(3, 2), len(want))
	}
	if hdr := AppendRunHeader(nil, 3, crcs); !bytes.Equal(hdr, want[:len(want)-len(data)]) {
		t.Fatalf("AppendRunHeader = % x", hdr)
	}
}

// randomRun builds count random cells of elem bytes and arbitrary checksums.
func randomRun(rng *rand.Rand, elem, count int) ([]byte, []uint32) {
	data := make([]byte, elem*count)
	rng.Read(data)
	crcs := make([]uint32, count)
	for i := range crcs {
		crcs[i] = rng.Uint32()
	}
	return data, crcs
}

// TestReadFrame: an exact frame fills the caller's buffer with the payload
// it carries and returns its checksums, and every way a body can disagree
// with the frame the reader asked for is an error that returns no checksums.
func TestReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, elem := range []int{1, 64, 4096} {
		for _, count := range []int{1, 2, 7} {
			data, crcs := randomRun(rng, elem, count)
			frame := EncodeRun(elem, data, crcs)
			hdrLen := FrameLen(elem, count) - elem*count
			got := make([]byte, elem*count)
			gotCRCs, err := ReadFrame(bytes.NewReader(frame), elem, got)
			if err != nil {
				t.Fatalf("elem %d count %d: %v", elem, count, err)
			}
			if !bytes.Equal(got, data) || len(gotCRCs) != count {
				t.Fatalf("elem %d count %d: payload mismatch", elem, count)
			}
			for i := range crcs {
				if gotCRCs[i] != crcs[i] {
					t.Fatalf("elem %d count %d: crc %d = %x, want %x", elem, count, i, gotCRCs[i], crcs[i])
				}
			}
			patched := func(off int, v uint32) []byte {
				b := append([]byte(nil), frame...)
				binary.LittleEndian.PutUint32(b[off:], v)
				return b
			}
			bad := map[string]struct {
				body    []byte
				elem    int
				payload int // bytes of caller buffer
			}{
				"empty":                      {nil, elem, elem * count},
				"truncated in magic":         {frame[:2], elem, elem * count},
				"truncated in header":        {frame[:runHeaderLen-1], elem, elem * count},
				"truncated in checksums":     {frame[:hdrLen-1], elem, elem * count},
				"header only":                {frame[:hdrLen], elem, elem * count},
				"truncated in payload":       {frame[:len(frame)-1], elem, elem * count},
				"over-long":                  {append(append([]byte(nil), frame...), 0), elem, elem * count},
				"bad magic":                  {append([]byte("XXXX"), frame[4:]...), elem, elem * count},
				"wrong element size":         {frame, elem + 1, (elem + 1) * count},
				"declared element size":      {patched(4, uint32(elem+1)), elem, elem * count},
				"fewer cells than asked":     {frame, elem, elem * (count + 1)},
				"more cells than asked":      {frame, elem, elem * (count - 1)},
				"declared count":             {patched(8, uint32(count+1)), elem, elem * count},
				"payload not whole cells":    {frame, elem, elem*count + 1},
				"frame of another elem size": {EncodeRun(elem+1, make([]byte, (elem+1)*count), crcs), elem, elem * count},
			}
			for name, c := range bad {
				buf := make([]byte, c.payload)
				gotCRCs, err := ReadFrame(bytes.NewReader(c.body), c.elem, buf)
				if err == nil || gotCRCs != nil {
					t.Fatalf("elem %d count %d: %s body accepted (err %v, %d checksums)", elem, count, name, err, len(gotCRCs))
				}
			}
		}
	}
	// A count over the frame limit is refused before anything is read.
	if _, err := ReadFrame(bytes.NewReader(nil), 1, make([]byte, maxRunCells+1)); err == nil {
		t.Fatal("count over the frame limit accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil), 0, nil); err == nil {
		t.Fatal("zero element size accepted")
	}
}

// TestReadFrameReadError: a transport error after the frame is reported,
// not mistaken for a clean end of body.
func TestReadFrameReadError(t *testing.T) {
	frame := EncodeRun(4, []byte("abcd"), []uint32{7})
	r := io.MultiReader(bytes.NewReader(frame), &failingReader{})
	_, err := ReadFrame(r, 4, make([]byte, 4))
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("err = %v, want the trailing read error", err)
	}
}

type failingReader struct{}

func (*failingReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }
