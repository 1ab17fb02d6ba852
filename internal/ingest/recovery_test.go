package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taxiqueue/internal/mdt"
)

// preWALRejected counts the records a service refused before its WAL saw
// them: out-of-order arrivals plus re-send dedup-window hits. Everything
// else the service was fed is in the log.
func preWALRejected(svc *Service) int64 {
	n := svc.met.removedOOO.Value()
	for _, sh := range svc.Stats().Shards {
		n += sh.Deduped
	}
	return n
}

// TestCrashRecoveryByteIdentical: checkpoint, kill after K records,
// restart (WAL replay), finish the feed — every final slot context must be
// byte-identical to an uninterrupted run. Because the WAL logs raw records
// pre-clean and replay re-runs the live cleaner+engine path, this holds at
// an arbitrary cut point, even mid-hold in the cleaner.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	d := getDay(t)
	k := len(d.raw) / 2

	base := d.serviceConfig()
	base.Shards = 4

	// Reference: one uninterrupted run (durability on, same config).
	refCfg := base
	refCfg.WALDir = t.TempDir()
	ref := runService(t, refCfg, d.raw)
	wantL, wantF := snapshot(t, ref, d)
	wantAccepted := ref.Stats().Accepted
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Crashed run: feed K records, checkpoint, kill without flushing.
	crashCfg := base
	crashCfg.WALDir = t.TempDir()
	svc, err := NewService(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[:k])
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logged := int64(k) - preWALRejected(svc) // what the WAL holds
	svc.Abort()

	// Restart: recovery must replay every checkpointed raw record.
	svc2, err := NewService(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Replayed; got != logged {
		t.Fatalf("replayed %d, checkpointed %d raw records", got, logged)
	}
	feed(t, svc2, d.raw[k:])
	if err := svc2.Flush(); err != nil {
		t.Fatal(err)
	}
	gotL, gotF := snapshot(t, svc2, d)
	sameContexts(t, "recovered", gotL, gotF, wantL, wantF)
	if got := svc2.Stats().Accepted; got != wantAccepted {
		t.Fatalf("accepted %d after recovery, uninterrupted run accepted %d", got, wantAccepted)
	}
}

// TestGroupCommitClosesTheDurabilityGap: records appended after the last
// checkpoint used to be lost in a crash. With group commit the shard
// worker fsyncs whenever its queue goes idle, so once a drain barrier has
// passed every logged record is durable — wal_pending reads zero, and a
// kill -9 right then loses nothing, checkpoint or no checkpoint.
func TestGroupCommitClosesTheDurabilityGap(t *testing.T) {
	d := getDay(t)
	k := len(d.raw) / 3
	cfg := d.serviceConfig()
	cfg.Shards = 2
	cfg.WALDir = t.TempDir()

	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[:k])
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Keep feeding past the checkpoint, then crash.
	feed(t, svc, d.raw[k:k+2000])
	// Barrier: a FlushUntil at the grid start closes nothing but only
	// returns once every queue has drained — and a drained queue means the
	// worker's idle-triggered group commit has already fsynced everything.
	if err := svc.FlushUntil(d.grid.Start); err != nil {
		t.Fatal(err)
	}
	var pending int64
	for _, sh := range svc.Stats().Shards {
		pending += sh.WALPending
	}
	if pending != 0 {
		t.Fatalf("wal_pending %d after a drain barrier, want 0 (idle group commit)", pending)
	}
	logged := int64(k+2000) - preWALRejected(svc) // every ordering-accepted record
	svc.Abort()

	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Replayed; got != logged {
		t.Fatalf("replayed %d, want all %d logged records (including the %d past the checkpoint)",
			got, logged, 2000)
	}
}

// perturbOutOfOrder returns a copy of recs with per-taxi time-order
// violations injected: for a sample of taxis, a later record is swapped
// ahead of an earlier one (at whole-second distance, so the ordering rule
// must fire in both durability modes).
func perturbOutOfOrder(t *testing.T, recs []mdt.Record) []mdt.Record {
	t.Helper()
	out := append([]mdt.Record(nil), recs...)
	occ := make(map[string][]int)
	for i, r := range out {
		occ[r.TaxiID] = append(occ[r.TaxiID], i)
	}
	swapped := 0
	for _, idx := range occ {
		for k := 0; k+3 < len(idx); k += 16 {
			i, j := idx[k], idx[k+3]
			if out[j].Time.Unix() > out[i].Time.Unix() {
				out[i], out[j] = out[j], out[i]
				swapped++
			}
		}
	}
	if swapped == 0 {
		t.Fatal("fixture too small to perturb")
	}
	return out
}

// TestDurabilityModesAgreeOnOutOfOrderFeed: one ordering rule for both
// durability modes. An out-of-order record used to be rejected by the WAL
// append (pre-cleaner) with durability on but reach the cleaner with
// durability off — so the two modes rejected different records and served
// different labels from the same input. Now WAL-on, WAL-off and a
// recovered WAL-on service must all agree exactly.
func TestDurabilityModesAgreeOnOutOfOrderFeed(t *testing.T) {
	d := getDay(t)
	ooo := perturbOutOfOrder(t, d.raw)
	cfg := d.serviceConfig()
	cfg.Shards = 3

	plain := runService(t, cfg, ooo) // durability off
	defer plain.Close()
	pL, pF := snapshot(t, plain, d)
	pst := plain.Stats()
	if n := plain.met.removedOOO.Value(); n == 0 {
		t.Fatal("perturbed feed triggered no out-of-order rejections")
	}

	durCfg := cfg
	durCfg.WALDir = t.TempDir()
	dur := runService(t, durCfg, ooo) // durability on
	dL, dF := snapshot(t, dur, d)
	dst := dur.Stats()
	sameContexts(t, "wal-on vs wal-off", dL, dF, pL, pF)
	if dst.Accepted != pst.Accepted || dst.Rejected != pst.Rejected {
		t.Fatalf("durable accepted/rejected %d/%d, non-durable %d/%d",
			dst.Accepted, dst.Rejected, pst.Accepted, pst.Rejected)
	}
	logged := int64(len(ooo)) - preWALRejected(dur)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// The ordering rule runs before the WAL, so the log only ever holds
	// per-taxi time-ordered records: a restart over the out-of-order feed's
	// WAL must succeed and replay every ordering-accepted record. (Replayed
	// contexts are not compared here — store replay is time-sorted, and
	// slot-close timing is arrival-order sensitive by design.)
	dur2, err := NewService(durCfg)
	if err != nil {
		t.Fatalf("restart over out-of-order feed's WAL: %v", err)
	}
	defer dur2.Close()
	if got := dur2.Stats().Replayed; got != logged {
		t.Fatalf("replayed %d, logged %d ordering-accepted records", got, logged)
	}
}

// newestSegment returns the lexicographically last sealed segment file in
// shard i's WAL directory — the zero-padded seal-sequence names make that
// the newest one, the only segment recovery is allowed to truncate.
func newestSegment(t *testing.T, dir string, shard int) string {
	t.Helper()
	ents, err := os.ReadDir(shardWALDir(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "seg-") && name > last {
			last = name
		}
	}
	if last == "" {
		t.Fatal("no sealed segment to damage")
	}
	return filepath.Join(shardWALDir(dir, shard), last)
}

// TestRecoveryTruncatesTornWAL: a WAL whose newest segment has a torn tail
// (a crash mid-write, or a lying disk) no longer fails startup — the
// service resumes from the longest clean prefix, counts and reports the
// truncation, and immediately rewrites the segment clean so the damage is
// not rediscovered forever.
func TestRecoveryTruncatesTornWAL(t *testing.T) {
	d := getDay(t)
	dir := t.TempDir()
	cfg := d.serviceConfig()
	cfg.Shards = 2
	cfg.WALDir = dir
	svc := runService(t, cfg, d.raw[:5000])
	logged := int64(5000) - preWALRejected(svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear shard 0's newest segment mid-payload. (Close sealed the active
	// segment, so the newest sealed file carries the tail of the log.)
	path := newestSegment(t, dir, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatalf("restart over torn WAL: %v", err)
	}
	st := svc2.Stats()
	var truncs int64
	for _, sh := range st.Shards {
		truncs += sh.Truncations
	}
	if truncs != 1 {
		t.Fatalf("wal_truncations %d, want 1", truncs)
	}
	if st.Replayed <= 0 || st.Replayed >= logged {
		t.Fatalf("replayed %d records over a half-truncated WAL, logged %d", st.Replayed, logged)
	}
	replayed := st.Replayed
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	// The damaged segment was rewritten clean at startup: a second restart
	// replays the same prefix with no further truncation.
	svc3, err := NewService(cfg)
	if err != nil {
		t.Fatalf("restart over rewritten WAL: %v", err)
	}
	defer svc3.Close()
	st3 := svc3.Stats()
	for _, sh := range st3.Shards {
		if sh.Truncations != 0 {
			t.Fatalf("shard %d re-truncated an already-rewritten WAL", sh.Shard)
		}
	}
	if st3.Replayed != replayed {
		t.Fatalf("second restart replayed %d, first replayed %d", st3.Replayed, replayed)
	}
}

// TestRecoveryRejectsHopelessWAL: tolerance has a floor — a segment that
// carries a full-size header with the wrong magic was never written by
// this WAL, so startup fails loudly instead of silently truncating away
// data that may exist under a different format.
func TestRecoveryRejectsHopelessWAL(t *testing.T) {
	d := getDay(t)
	dir := t.TempDir()
	cfg := d.serviceConfig()
	cfg.Shards = 2
	cfg.WALDir = dir
	svc := runService(t, cfg, d.raw[:2000])
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// An active segment with a wrong-magic header (≥ 8 bytes, so it cannot
	// be a torn creation) must fail the open, not be swept aside.
	if err := os.WriteFile(WALPath(dir, 0), []byte("not a wal segment!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(cfg); err == nil {
		t.Fatal("service started over a WAL with a foreign header")
	}
}

// TestResendIdempotent: a resilient client that cannot know whether a
// failed request was applied re-sends it. Re-feeding an already-absorbed
// window must change nothing: the ordering rule rejects records behind the
// per-taxi tail second and the dedup window absorbs byte-identical records
// at it, so the served contexts stay byte-identical to a single clean run.
func TestResendIdempotent(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 4

	ref := runService(t, cfg, d.raw)
	defer ref.Close()
	wantL, wantF := snapshot(t, ref, d)
	wantAccepted := ref.Stats().Accepted

	k := 2 * len(d.raw) / 3
	j := k - 5000 // the window the client "lost the ack for"
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	feed(t, svc, d.raw[:k])
	feed(t, svc, d.raw[j:k]) // duplicate re-send of the last window
	feed(t, svc, d.raw[k:])
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	gotL, gotF := snapshot(t, svc, d)
	sameContexts(t, "after re-send", gotL, gotF, wantL, wantF)
	st := svc.Stats()
	if st.Accepted != wantAccepted {
		t.Fatalf("accepted %d after re-send, clean run accepted %d", st.Accepted, wantAccepted)
	}
	var deduped int64
	for _, sh := range st.Shards {
		deduped += sh.Deduped
	}
	if deduped == 0 {
		t.Fatal("re-sent window hit the dedup window zero times")
	}
}

// TestCrashRestartResendByteIdentical is the full client-facing recovery
// contract: checkpoint, keep feeding, crash (losing the post-checkpoint
// records), restart, and have the client re-send everything from the start
// of its day — the recovered service absorbs the overlap, regains the lost
// records, finishes the feed and serves contexts byte-identical to an
// uninterrupted run.
func TestCrashRestartResendByteIdentical(t *testing.T) {
	d := getDay(t)
	base := d.serviceConfig()
	base.Shards = 4

	refCfg := base
	refCfg.WALDir = t.TempDir()
	ref := runService(t, refCfg, d.raw)
	wantL, wantF := snapshot(t, ref, d)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	k1 := len(d.raw) / 3 // checkpointed
	k2 := len(d.raw) / 2 // fed but lost in the crash
	cfg := base
	cfg.WALDir = t.TempDir()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[:k1])
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[k1:k2])
	svc.Abort() // records k1:k2 are gone

	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	feed(t, svc2, d.raw[:k2]) // client re-sends its whole day so far
	feed(t, svc2, d.raw[k2:])
	if err := svc2.Flush(); err != nil {
		t.Fatal(err)
	}
	gotL, gotF := snapshot(t, svc2, d)
	sameContexts(t, "crash+restart+re-send", gotL, gotF, wantL, wantF)
}

// TestCompactionBoundsSegmentCount: a day of aggressive checkpointing must
// not leave a segment per checkpoint behind — the background compactor
// folds runs of small segments, so replay cost stays proportional to the
// data instead of the checkpoint count.
func TestCompactionBoundsSegmentCount(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 1
	dir := t.TempDir()
	cfg.WALDir = dir
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for recs := d.raw; len(recs) > 0; {
		n := min(400, len(recs))
		feed(t, svc, recs[:n])
		if err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	logged := int64(len(d.raw)) - preWALRejected(svc)
	if err := svc.Close(); err != nil { // waits out the compactor
		t.Fatal(err)
	}
	st := svc.Stats().Shards[0]
	if st.Checkpoints < 20 {
		t.Fatalf("only %d checkpoints, fixture too small to exercise compaction", st.Checkpoints)
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions over a day of 400-record checkpoints")
	}
	ents, err := os.ReadDir(shardWALDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		if name := e.Name(); filepath.Ext(name) == ".seg" && name != "active.seg" {
			segs++
		}
	}
	if bound := int(st.Checkpoints) / 2; segs >= bound {
		t.Fatalf("%d sealed segments survive %d checkpoints, want compaction to fold them below %d",
			segs, st.Checkpoints, bound)
	}

	// The compacted log still replays every record.
	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Replayed; got != logged {
		t.Fatalf("replayed %d over the compacted log, logged %d", got, logged)
	}
}
