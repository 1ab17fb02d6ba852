package store

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"taxiqueue/internal/mdt"
)

// walRecs builds n deterministic records cycling over a few taxis.
func walRecs(n int) []mdt.Record {
	ids := []string{"SH0001A", "SH0002B", "SH0003C"}
	states := []mdt.State{mdt.Free, mdt.POB, mdt.Payment}
	out := make([]mdt.Record, n)
	for i := range out {
		out[i] = rec(ids[i%len(ids)], i, states[i%len(states)])
	}
	return out
}

// replayAll opens dir and collects every recovered record.
func replayAll(t *testing.T, dir string, cfg WALConfig) ([]mdt.Record, *WAL, Recovery) {
	t.Helper()
	var got []mdt.Record
	w, rec, err := OpenWAL(dir, cfg, func(r mdt.Record) { got = append(got, r) })
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return got, w, rec
}

func sameRecords(t *testing.T, got, want []mdt.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// segFiles lists the sealed segment file names in dir, sorted.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), walSegPrefix) && strings.HasSuffix(e.Name(), walSegSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(100)
	w, rcv, err := OpenWAL(dir, WALConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Records != 0 {
		t.Fatalf("fresh dir replayed %d records", rcv.Records)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if p := w.Pending(); p != 100 {
		t.Fatalf("Pending = %d before commit, want 100", p)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if p := w.Pending(); p != 0 {
		t.Fatalf("Pending = %d after commit, want 0", p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, w2, rcv := replayAll(t, dir, WALConfig{})
	defer w2.Close()
	if rcv.Truncated() {
		t.Fatalf("clean log reported damage: %v", rcv.Err)
	}
	sameRecords(t, got, recs)
}

func TestWALSealRotatesAndReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(90)
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%30 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n != 3 {
		t.Fatalf("sealed %d segments, want 3 (%v)", n, segFiles(t, dir))
	}
	if _, err := os.Stat(filepath.Join(dir, walActiveName)); !os.IsNotExist(err) {
		t.Fatalf("active segment should be absent after sealing everything: %v", err)
	}
	got, w2, _ := replayAll(t, dir, WALConfig{CompactAfter: -1})
	defer w2.Close()
	sameRecords(t, got, recs)
}

func TestWALSealIsIdempotentAndCheap(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sealing with nothing buffered must be a no-op, not an empty segment.
	for i := 0; i < 5; i++ {
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segFiles(t, dir)); n != 0 {
		t.Fatalf("empty seals produced %d segment files", n)
	}
	if err := w.Append(walRecs(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil { // nothing new: no second segment
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n != 1 {
		t.Fatalf("got %d segments, want 1", n)
	}
	w.Close()
}

// TestWALCrashCutReplaysLongestCleanPrefix is the crash-cut property: for
// every possible torn tail of the active segment, recovery replays exactly
// the records whose frames survived intact — never fails, never invents.
func TestWALCrashCutReplaysLongestCleanPrefix(t *testing.T) {
	recs := walRecs(40)
	// Build a reference log once to learn the byte offsets of each frame.
	ref := t.TempDir()
	w, _, err := OpenWAL(ref, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{int64(len(segmentMagic))}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, w.activeSize)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ref, walActiveName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walActiveName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, w2, rcv := replayAll(t, dir, WALConfig{CompactAfter: -1})
		w2.Close()
		// The survivors are the records whose whole frame fits below cut.
		n := sort.Search(len(recs), func(i int) bool { return offsets[i+1] > cut })
		sameRecords(t, got, recs[:n])
		// A cut exactly on a frame boundary (header included) is clean;
		// anything else must be reported as a truncation.
		clean := cut >= int64(len(segmentMagic)) && offsets[n] == cut
		if clean == rcv.Truncated() {
			t.Fatalf("cut %d: Truncated = %v, clean frames %d", cut, rcv.Truncated(), n)
		}
	}
}

func TestWALDamagedSealedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(60)
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	// Tearing the tail of a NON-last sealed segment is real corruption: a
	// sealed file was fsynced before its rename, so recovery must refuse to
	// silently drop acknowledged records.
	victim := filepath.Join(dir, segs[0])
	st, _ := os.Stat(victim)
	if err := os.Truncate(victim, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil); err == nil {
		t.Fatal("OpenWAL accepted a damaged non-last sealed segment")
	}
}

func TestWALTornLastSealedSegmentTolerated(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(40)
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// No active file: the newest sealed segment is the last segment on
	// disk, and a torn byte there gets the clean-prefix tolerance.
	segs := segFiles(t, dir)
	victim := filepath.Join(dir, segs[len(segs)-1])
	st, _ := os.Stat(victim)
	if err := os.Truncate(victim, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	got, w2, rcv := replayAll(t, dir, WALConfig{CompactAfter: -1})
	w2.Close()
	if !rcv.Truncated() {
		t.Fatal("torn last segment not reported")
	}
	// The torn frame is dropped whole; the first segment survives.
	if len(got) < 20 || len(got) >= 40 {
		t.Fatalf("replayed %d records, want a strict prefix covering the first segment", len(got))
	}
	sameRecords(t, got, recs[:len(got)])
	// The truncation is persisted: a second open is clean and identical.
	got2, w3, rcv2 := replayAll(t, dir, WALConfig{CompactAfter: -1})
	w3.Close()
	if rcv2.Truncated() {
		t.Fatalf("second open still damaged: %v", rcv2.Err)
	}
	sameRecords(t, got2, got)
}

func TestWALWrongMagicFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walActiveName), []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALConfig{}, nil); err == nil {
		t.Fatal("OpenWAL accepted a wrong-magic active segment")
	}
	// A header shorter than the magic is a torn creation, not corruption.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, walActiveName), []byte("no"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, w, rcv := replayAll(t, dir2, WALConfig{})
	defer w.Close()
	if len(got) != 0 || !rcv.Truncated() {
		t.Fatalf("torn header: replayed %d, truncated %v", len(got), rcv.Truncated())
	}
}

func TestWALCompactionFoldsSegmentsAndPreservesReplay(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(400)
	done := make(chan struct{}, 64)
	w, _, err := OpenWAL(dir, WALConfig{
		CompactAfter: 4,
		OnCompact:    func(folded int, err error) { done <- struct{}{} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil { // waits out the compactor
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran over 16 small segments")
	}
	if st.Segments >= 16 {
		t.Fatalf("compaction left %d segments, want fewer than 16", st.Segments)
	}
	got, w2, rcv := replayAll(t, dir, WALConfig{CompactAfter: -1})
	defer w2.Close()
	if rcv.Truncated() {
		t.Fatalf("compacted log reported damage: %v", rcv.Err)
	}
	sameRecords(t, got, recs)
}

func TestWALOpenSweepsCompactionLeftovers(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(80)
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%20 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a compaction that crashed after its rename: the merged file
	// covering segments 1-3 exists alongside its redundant sources.
	segs := segFiles(t, dir)
	if len(segs) != 4 {
		t.Fatalf("want 4 segments, got %v", segs)
	}
	var merged []byte
	merged = append(merged, segmentMagic[:]...)
	for _, name := range segs[:3] {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, data[len(segmentMagic):]...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1, 3)), merged, 0o644); err != nil {
		t.Fatal(err)
	}
	got, w2, rcv := replayAll(t, dir, WALConfig{CompactAfter: -1})
	defer w2.Close()
	if rcv.Truncated() {
		t.Fatalf("sweep reported damage: %v", rcv.Err)
	}
	sameRecords(t, got, recs)
	after := segFiles(t, dir)
	if len(after) != 2 {
		t.Fatalf("contained sources not swept: %v", after)
	}
}

func TestWALAppendContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(75)
	var logged []mdt.Record
	for start := 0; start < len(recs); start += 25 {
		got, w, _ := replayAll(t, dir, WALConfig{CompactAfter: -1})
		sameRecords(t, got, logged)
		for _, r := range recs[start : start+25] {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, recs[start:start+25]...)
	}
	got, w, _ := replayAll(t, dir, WALConfig{CompactAfter: -1})
	w.Close()
	sameRecords(t, got, recs)
}

func TestWALStatsTrackWriteVolume(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(200)
	w, _, err := OpenWAL(dir, WALConfig{CompactAfter: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := 0
	for i, r := range recs {
		payload = len(r.AppendBinary(nil)) * (i + 1)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Segments != 20 {
		t.Fatalf("Segments = %d, want 20", st.Segments)
	}
	// Append-only with compaction off: total bytes written is the payload
	// plus one magic and one frame header per segment (each seal commits
	// its records as one frame) — independent of how many records were
	// sealed before, the O(1)-amortized-checkpoint property.
	want := int64(payload) + 20*int64(len(segmentMagic)+FrameHeader)
	if st.BytesWritten != want {
		t.Fatalf("BytesWritten = %d, want %d", st.BytesWritten, want)
	}
}

func TestWALSegNameRoundTrip(t *testing.T) {
	for _, tc := range []struct{ lo, hi uint64 }{{1, 1}, {7, 42}, {123456789, 987654321}} {
		lo, hi, ok := parseSegName(segName(tc.lo, tc.hi))
		if !ok || lo != tc.lo || hi != tc.hi {
			t.Fatalf("round trip %v -> %s -> (%d,%d,%v)", tc, segName(tc.lo, tc.hi), lo, hi, ok)
		}
	}
	for _, bad := range []string{"active.seg", "seg-1.seg", "seg-0-1.seg", "seg-2-1.seg", "seg-a-b.seg", "seg-1-2.tmp"} {
		if _, _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName accepted %q", bad)
		}
	}
}
