package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"taxiqueue/internal/mdt"
)

// framedSegment encodes recs as the WAL writes them when it commits every
// three records: the magic, then one frame per commit. before[off] is the
// number of records in the frames wholly before byte off.
func framedSegment(recs []mdt.Record) (data []byte, before []int) {
	data = append(data, segmentMagic[:]...)
	for i := 0; i < len(recs); i += 3 {
		var payload []byte
		for _, r := range recs[i:min(i+3, len(recs))] {
			payload = r.AppendBinary(payload)
		}
		data = AppendFrame(data, payload)
		for len(before) < len(data) {
			before = append(before, i)
		}
	}
	return data, before
}

// TestBitFlipEveryBitDetected is the integrity property of every record
// file kind: flip any single bit and reopen. A flip in a sealed WAL
// segment fails the open; a flip in the active segment truncates it at
// the damaged frame and reports Recovery.Err (or fails the open, for a
// flip in the magic); a flip in a tool segment file fails the strict
// read. In every case no record of the flipped frame, and nothing after
// it, is ever replayed or returned.
func TestBitFlipEveryBitDetected(t *testing.T) {
	recs := walRecs(15)
	sealed, sealedBefore := framedSegment(recs[:9])
	active, activeBefore := framedSegment(recs[9:])
	// The fixture is byte for byte what the WAL writes.
	w, _, err := OpenWAL(t.TempDir(), WALConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs[9:] {
		if w.Append(r); (i+1)%3 == 0 {
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if written, err := os.ReadFile(filepath.Join(w.dir, walActiveName)); err != nil || !bytes.Equal(written, active) {
		t.Fatalf("the WAL wrote a different active segment (%v)", err)
	}
	w.Abort()

	// reopen writes the two files (one possibly flipped) and replays.
	reopen := func(sealedData, activeData []byte) ([]mdt.Record, Recovery, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1, 1)), sealedData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walActiveName), activeData, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []mdt.Record
		w, rcv, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, func(r mdt.Record) { got = append(got, r) })
		if err == nil {
			w.Close()
		}
		return got, rcv, err
	}
	if got, rcv, err := reopen(sealed, active); err != nil || rcv.Truncated() {
		t.Fatalf("unflipped log: err %v, damage %v", err, rcv.Err)
	} else {
		sameRecords(t, got, recs)
	}
	flip := func(data []byte, bit int) []byte {
		bad := bytes.Clone(data)
		bad[bit/8] ^= 1 << (bit % 8)
		return bad
	}

	t.Run("wal-sealed", func(t *testing.T) {
		for bit := 0; bit < 8*len(sealed); bit++ {
			got, _, err := reopen(flip(sealed, bit), active)
			if err == nil {
				t.Fatalf("bit %d of the sealed segment: open succeeded", bit)
			}
			if keep := sealedBefore[bit/8]; len(got) > keep {
				t.Fatalf("bit %d: replayed %d records, only %d precede the flipped frame", bit, len(got), keep)
			}
			sameRecords(t, got, recs[:len(got)])
		}
	})
	t.Run("wal-active", func(t *testing.T) {
		for bit := 0; bit < 8*len(active); bit++ {
			got, rcv, err := reopen(sealed, flip(active, bit))
			if err == nil && !rcv.Truncated() {
				t.Fatalf("bit %d of the active segment: no damage reported", bit)
			}
			if keep := 9 + activeBefore[bit/8]; len(got) > keep {
				t.Fatalf("bit %d: replayed %d records, only %d precede the flipped frame", bit, len(got), keep)
			}
			sameRecords(t, got, recs[:len(got)])
		}
	})
	t.Run("tool-segment", func(t *testing.T) {
		file := EncodeSegment(recs)
		for bit := 0; bit < 8*len(file); bit++ {
			if got, err := ReadSegment(bytes.NewReader(flip(file, bit))); err == nil {
				t.Fatalf("bit %d of a tool segment file: read %d records without error", bit, len(got))
			}
		}
	})
}
