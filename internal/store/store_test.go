package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

var t0 = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func rec(id string, sec int, state mdt.State) mdt.Record {
	return mdt.Record{
		Time: t0.Add(time.Duration(sec) * time.Second), TaxiID: id,
		Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: float64(sec % 60), State: state,
	}
}

// loadSegment reads the segment file at path strictly.
func loadSegment(path string) ([]mdt.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadSegment(bytes.NewReader(data))
}

// TestSegmentReadIsExactAndStrict: a segment file reads back exactly the
// records it was encoded from, across frames; every truncation (but the
// bare magic, a valid empty segment) and any foreign file is an error,
// never a silently shorter record list.
func TestSegmentReadIsExactAndStrict(t *testing.T) {
	recs := walRecs(3000) // more than one 64 KiB frame
	got, err := ReadSegment(bytes.NewReader(EncodeSegment(recs)))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, recs)
	data := EncodeSegment(walRecs(50))
	for cut := 0; cut < len(data); cut++ {
		got, err := ReadSegment(bytes.NewReader(data[:cut]))
		if cut == len(segmentMagic) {
			if err != nil || len(got) != 0 {
				t.Fatalf("bare magic: %d records, %v", len(got), err)
			}
		} else if err == nil {
			t.Fatalf("cut %d of %d: read %d records without error", cut, len(data), len(got))
		}
	}
	for _, garbage := range []string{"", "TQST3\x00\x00\x00", "not a segment file at all"} {
		if _, err := ReadSegment(strings.NewReader(garbage)); err == nil {
			t.Fatalf("garbage %q accepted", garbage)
		}
	}
}

// TestSaveFileAtomic: a failed save must leave the previous on-disk copy
// intact and no temp litter behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/day.tqs"
	if err := SaveFile(OS, path, EncodeSegment(walRecs(1))); err != nil {
		t.Fatal(err)
	}
	// A save into a directory that vanished must fail, name the path, and
	// not disturb anything else.
	if err := SaveFile(OS, dir+"/gone/day.tqs", EncodeSegment(walRecs(1))); err == nil {
		t.Fatal("save into missing directory succeeded")
	} else if !strings.Contains(err.Error(), "gone/day.tqs") {
		t.Fatalf("error does not name the path: %v", err)
	}
	// Overwrite with a bigger file; only the end state and the absence of
	// leaked temp files can be checked here.
	if err := SaveFile(OS, path, EncodeSegment(walRecs(3000))); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "day.tqs" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}
	got, err := loadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3000 {
		t.Fatalf("loaded %d records, want 3000", len(got))
	}
}

// TestRemoveTemps: stale SaveFile temp files (a crash between temp-write
// and rename) are swept; committed files survive.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "day.tqs")
	if err := SaveFile(OS, path, EncodeSegment(walRecs(200))); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "day.tqs.tmp-1234")
	if err := os.WriteFile(stale, []byte("half-written file"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale {
		t.Fatalf("removed %v, want just the stale temp", removed)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp still present")
	}
	if _, err := loadSegment(path); err != nil {
		t.Fatalf("committed file damaged by sweep: %v", err)
	}
}
