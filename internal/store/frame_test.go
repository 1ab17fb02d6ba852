package store

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"taxiqueue/internal/mdt"
)

// framed builds a buffer of frames with the given payloads and returns it
// with each frame's end offset.
func framed(payloads ...string) ([]byte, []int64) {
	var data []byte
	var ends []int64
	for _, p := range payloads {
		data = AppendFrame(data, []byte(p))
		ends = append(ends, int64(len(data)))
	}
	return data, ends
}

// scanAll collects every payload ScanFrames delivers.
func scanAll(data []byte) ([]string, int64, error) {
	var got []string
	clean, damage := ScanFrames(bytes.NewReader(data), func(_ int64, p []byte) error {
		got = append(got, string(p))
		return nil
	})
	return got, clean, damage
}

func TestScanFramesRoundTrip(t *testing.T) {
	payloads := []string{"a", "frame two", string(make([]byte, 100<<10)), "z"}
	data, ends := framed(payloads...)
	var offs []int64
	clean, damage := ScanFrames(bytes.NewReader(data), func(off int64, p []byte) error {
		offs = append(offs, off)
		return nil
	})
	if damage != nil || clean != int64(len(data)) {
		t.Fatalf("clean scan: clean %d of %d, damage %v", clean, len(data), damage)
	}
	for i, off := range offs {
		if want := ends[i] - int64(FrameHeader+len(payloads[i])); off != want {
			t.Fatalf("frame %d at offset %d, want %d", i, off, want)
		}
		p, err := ReadFrameAt(bytes.NewReader(data), off, len(payloads[i]))
		if err != nil || string(p) != payloads[i] {
			t.Fatalf("ReadFrameAt frame %d: %v", i, err)
		}
	}
}

// TestScanFramesStopsAtDamage: a payload the caller rejects, or a zero run
// (what a filesystem may leave past a crash, not a run of valid empty
// frames), ends the scan after the last good frame.
func TestScanFramesStopsAtDamage(t *testing.T) {
	errBad := errors.New("undecodable")
	data, ends := framed("ok", "bad", "never")
	clean, damage := ScanFrames(bytes.NewReader(data), func(_ int64, p []byte) error {
		if string(p) == "bad" {
			return errBad
		}
		return nil
	})
	if clean != ends[0] || !errors.Is(damage, errBad) {
		t.Fatalf("rejected payload: clean %d, damage %v; want %d and the callback's error", clean, damage, ends[0])
	}
	_, clean, damage = scanAll(append(data[:ends[0]:ends[0]], make([]byte, 64)...))
	if clean != ends[0] || !errors.Is(damage, errBadFrame) {
		t.Fatalf("zero tail: clean %d, damage %v", clean, damage)
	}
}

// TestScanFramesHugeLengthAllocatesLittle: a corrupt length field near the
// limit must not allocate the claimed size before finding the input short.
func TestScanFramesHugeLengthAllocatesLittle(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 'x'}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, damage := scanAll(hdr)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("scanning a 9-byte input allocated %d bytes", grew)
	}
	if !errors.Is(damage, io.ErrUnexpectedEOF) {
		t.Fatalf("huge length over a short input: %v", damage)
	}
}

// FuzzScanFrames: any input scans without panicking, the clean prefix
// re-scans to the same frames without damage, and re-encoding those frames
// reproduces the prefix byte for byte.
func FuzzScanFrames(f *testing.F) {
	data, _ := framed("seed", "two")
	f.Add(data)
	f.Add(data[:len(data)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, clean, _ := scanAll(in)
		if clean > int64(len(in)) {
			t.Fatalf("clean %d beyond input %d", clean, len(in))
		}
		again, clean2, damage := scanAll(in[:clean])
		if damage != nil || clean2 != clean || len(again) != len(got) {
			t.Fatalf("clean prefix re-scan: %d frames, clean %d, damage %v", len(again), clean2, damage)
		}
		re, _ := framed(got...)
		if !bytes.Equal(re, in[:clean]) {
			t.Fatal("re-encoded frames differ from the clean prefix")
		}
	})
}

// FuzzReadSegment: the WAL segment reader never panics, and the clean
// prefix it reports reads back strictly as exactly the records it
// replayed.
func FuzzReadSegment(f *testing.F) {
	f.Add(EncodeSegment(walRecs(5)))
	f.Add(EncodeSegment(nil))
	f.Add([]byte("TQST4\x00\x00\x00garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var got []mdt.Record
		n, clean, _, err := scanSegment(bytes.NewReader(in), func(r mdt.Record) { got = append(got, r) })
		if err != nil || clean < int64(len(segmentMagic)) {
			return
		}
		again, err := ReadSegment(bytes.NewReader(in[:clean]))
		if err != nil || n != len(got) {
			t.Fatalf("clean prefix of %d bytes: %v (replayed %d, counted %d)", clean, err, len(got), n)
		}
		sameRecords(t, again, got)
	})
}
