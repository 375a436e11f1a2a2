package nodeapi

import (
	"bytes"
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

// TestReadFrame: an exact frame decodes to the payload it carries, and every
// way a body can disagree with the frame the reader asked for is an error.
func TestReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, elem := range []int{1, 64, 4096} {
		for _, count := range []int{1, 2, 7} {
			data, crcs := randomRun(rng, elem, count)
			frame := EncodeRun(elem, data, crcs)

			gotData, gotCRCs, err := ReadFrame(bytes.NewReader(frame), elem, count)
			if err != nil {
				t.Fatalf("elem %d count %d: %v", elem, count, err)
			}
			if !bytes.Equal(gotData, data) || len(gotCRCs) != count {
				t.Fatalf("elem %d count %d: payload mismatch", elem, count)
			}
			for i := range crcs {
				if gotCRCs[i] != crcs[i] {
					t.Fatalf("elem %d count %d: crc %d = %x, want %x", elem, count, i, gotCRCs[i], crcs[i])
				}
			}

			bad := map[string]struct {
				body  []byte
				count int
			}{
				"truncated":      {frame[:len(frame)-1], count},
				"header only":    {frame[:FrameLen(elem, count)-elem*count], count},
				"over-long":      {append(append([]byte(nil), frame...), 0), count},
				"fewer cells":    {frame, count + 1},
				"bad magic":      {append([]byte("XXXX"), frame[4:]...), count},
				"empty":          {nil, count},
				"count too high": {frame, 1<<22 + 1},
			}
			for name, c := range bad {
				if _, _, err := ReadFrame(bytes.NewReader(c.body), elem, c.count); err == nil {
					t.Fatalf("elem %d count %d: %s body accepted", elem, count, name)
				}
			}
			if _, _, err := ReadFrame(bytes.NewReader(frame), elem+1, count); err == nil {
				t.Fatalf("elem %d count %d: wrong element size accepted", elem, count)
			}
		}
	}
}

// TestReadFrameReadError: a transport error after the frame is reported,
// not mistaken for a clean end of body.
func TestReadFrameReadError(t *testing.T) {
	frame := EncodeRun(4, []byte("abcd"), []uint32{7})
	r := io.MultiReader(bytes.NewReader(frame), &failingReader{})
	_, _, err := ReadFrame(r, 4, 1)
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("err = %v, want the trailing read error", err)
	}
}

type failingReader struct{}

func (*failingReader) Read([]byte) (int, error) { return 0, io.ErrClosedPipe }
