package chaos

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

// testSegment encodes n records of one taxi as a segment file.
func testSegment(n int) []byte {
	recs := make([]mdt.Record, n)
	base := time.Date(2026, 1, 5, 6, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = mdt.Record{
			Time: base.Add(time.Duration(i) * time.Second), TaxiID: "SH0001A",
			Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: 30, State: mdt.Free,
		}
	}
	return store.EncodeSegment(recs)
}

// readSegment reads the segment file at path strictly.
func readSegment(path string) ([]mdt.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return store.ReadSegment(bytes.NewReader(data))
}

// TestDeterministicDecisions: one seed, one decision sequence — the whole
// point of a reproducible chaos harness.
func TestDeterministicDecisions(t *testing.T) {
	cfg := Config{Seed: 42}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 500; i++ {
		if got, want := a.hit("x", 0.3), b.hit("x", 0.3); got != want {
			t.Fatalf("decision %d diverged between same-seed plans", i)
		}
	}
	if a.Count("x") == 0 || a.Count("x") != b.Count("x") {
		t.Fatalf("counts diverged: %d vs %d", a.Count("x"), b.Count("x"))
	}
	if c := New(Config{Seed: 43}); c.hitSeq(500) == a.hitSeq(0) {
		t.Log("different seeds produced equal sequences (possible, unlikely)")
	}
}

// hitSeq draws n decisions and packs them; helper for the seed test.
func (f *Faults) hitSeq(n int) (seq uint64) {
	for i := 0; i < n && i < 64; i++ {
		if f.hit("seq", 0.5) {
			seq |= 1 << i
		}
	}
	return seq
}

// TestDisabledPassesThrough: a disabled plan injects nothing and draws no
// PRNG numbers, so re-enabling resumes the seeded sequence untouched.
func TestDisabledPassesThrough(t *testing.T) {
	f := New(Config{Seed: 7})
	f.SetEnabled(false)
	for i := 0; i < 100; i++ {
		if f.hit("x", 1.0) {
			t.Fatal("disabled plan injected a fault")
		}
	}
	if f.Total() != 0 {
		t.Fatalf("disabled plan counted %d faults", f.Total())
	}
	f.SetEnabled(true)
	if !f.hit("x", 1.0) {
		t.Fatal("re-enabled plan failed to inject at p=1")
	}
}

// TestFSShortWriteFailsSaveKeepsCommitted: a short write fails the save
// with an injected error, and the previously committed file is untouched —
// the atomicity contract under a sick disk.
func TestFSShortWriteFailsSaveKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "day.tqs")
	if err := store.SaveFile(store.OS, path, testSegment(100)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f := New(Config{Seed: 1, ShortWriteProb: 1})
	if err := store.SaveFile(f.FS(nil), path, testSegment(200)); !errors.Is(err, ErrInjected) {
		t.Fatalf("save through a short-writing disk: %v, want injected fault", err)
	}
	if f.Count("fs_short_write") == 0 {
		t.Fatal("short write not counted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("failed save altered the committed file")
	}
	if temps, err := store.RemoveTemps(dir); err != nil || len(temps) != 0 {
		t.Fatalf("failed save left temp files %v (err %v)", temps, err)
	}
}

// TestFSRenameFailure: a failed rename fails the save and leaves the
// committed copy alone.
func TestFSRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "day.tqs")
	if err := store.SaveFile(store.OS, path, testSegment(50)); err != nil {
		t.Fatal(err)
	}
	f := New(Config{Seed: 1, RenameErrProb: 1})
	if err := store.SaveFile(f.FS(nil), path, testSegment(80)); !errors.Is(err, ErrInjected) {
		t.Fatalf("save through failing rename: %v, want injected fault", err)
	}
	if recs, err := readSegment(path); err != nil || len(recs) != 50 {
		t.Fatalf("committed file damaged after failed rename: %d records, %v", len(recs), err)
	}
}

// TestFSSilentTornTailIsRecoverable: the nastiest disk fault — a save that
// reports success but leaves a torn file — is caught by the strict read,
// and is exactly the damage WAL recovery tolerates: the same bytes as a
// log's last segment replay a clean prefix and report the truncation.
func TestFSSilentTornTailIsRecoverable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000000001-000000001.seg")
	f := New(Config{Seed: 3, SilentTornProb: 1})
	if err := store.SaveFile(f.FS(nil), path, testSegment(200)); err != nil {
		t.Fatalf("silent torn save must report success, got %v", err)
	}
	if f.Count("fs_silent_torn") == 0 {
		t.Fatal("silent torn fault not counted")
	}
	if recs, err := readSegment(path); err == nil {
		t.Fatalf("strict read accepted a torn file (%d records)", len(recs))
	}
	n := 0
	w, rec, err := store.OpenWAL(dir, store.WALConfig{}, func(mdt.Record) { n++ })
	if err != nil {
		t.Fatalf("WAL recovery over a torn last segment: %v", err)
	}
	defer w.Close()
	if !rec.Truncated() || n >= 200 {
		t.Fatalf("recovered %d of 200 records, truncated=%v", n, rec.Truncated())
	}
}

// TestTearTail: the deterministic tail cutter used by the e2e scenario.
func TestTearTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "day.tqs")
	if err := store.SaveFile(store.OS, path, testSegment(100)); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := TearTail(path, 9); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-9 {
		t.Fatalf("size %d after tearing 9 bytes from %d", after.Size(), before.Size())
	}
	if _, err := readSegment(path); err == nil {
		t.Fatal("strict read accepted the torn file")
	}
	// Tearing more than the file holds clamps to empty.
	if err := TearTail(path, 1<<30); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("over-tear left %d bytes", st.Size())
	}
}

// TestRoundTripperRefusesAndCuts: the client-side injector refuses
// requests pre-dial and cuts response bodies mid-read, each surfacing as a
// transport error the feed client retries on.
func TestRoundTripperRefusesAndCuts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 4096))
	}))
	defer srv.Close()

	refuse := New(Config{Seed: 1, RefuseProb: 1})
	client := &http.Client{Transport: refuse.RoundTripper(nil)}
	if _, err := client.Get(srv.URL); err == nil || !errors.Is(errors.Unwrap(err), ErrInjected) {
		t.Fatalf("refused request returned %v, want injected fault", err)
	}
	if refuse.Count("http_refused") != 1 {
		t.Fatalf("http_refused count %d", refuse.Count("http_refused"))
	}

	cut := New(Config{Seed: 1, CutBodyProb: 1})
	client = &http.Client{Transport: cut.RoundTripper(nil)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); !errors.Is(err, ErrInjected) {
		t.Fatalf("cut body read returned %v, want injected fault", err)
	}
	if cut.Count("http_cut_body") != 1 {
		t.Fatalf("http_cut_body count %d", cut.Count("http_cut_body"))
	}
}

// TestListenerResets: the server-side injector kills accepted connections,
// which a client sees as a transport error — never a silent success.
func TestListenerResets(t *testing.T) {
	f := New(Config{Seed: 1, ResetProb: 1})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
	}))
	srv.Listener = f.Listener(srv.Listener)
	srv.Start()
	defer srv.Close()
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("request through a resetting listener succeeded")
	}
	if f.Count("net_reset_read")+f.Count("net_reset_write") == 0 {
		t.Fatal("no reset counted")
	}
}
