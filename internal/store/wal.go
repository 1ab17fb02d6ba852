package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/mdt"
)

// The segmented write-ahead log. Records buffer into the active segment and
// become durable in batches (group commit: one write + one fsync covers
// every record since the last commit). The active segment is sealed by an
// O(1) rename when it reaches SegmentBytes or a checkpoint asks, and a
// background compactor folds runs of small sealed segments so replay cost
// at restart stays proportional to the data, not to the seal count.
//
// On-disk layout, one directory per log:
//
//	active.seg              the segment being appended to (may be absent)
//	seg-<lo>-<hi>.seg       sealed, immutable segments; <lo>-<hi> is the
//	                        contiguous range of seal sequence numbers the
//	                        file covers (compaction merges ranges)
//
// Every file is the 8-byte segment magic followed by frames (frame.go);
// each group-commit write is one frame holding the batch's mdt binary
// records. Recovery replays sealed segments in range order, strictly — a
// sealed segment was fsynced before its rename, so damage there (a torn
// or bit-flipped frame) is real corruption and fails loudly. Only the
// *last* segment (the active one, or the newest sealed when no active file
// exists) gets the longest-clean-prefix tolerance: a torn tail is what a
// crash mid-commit legitimately leaves, so the file is truncated to its
// last whole frame, the damage is reported, and the log continues from
// there. A frame is replayed whole or not at all.
//
// Compaction is crash-safe by naming: a merged file covers the exact range
// of its sources and is written with SaveFile (temp, fsync, rename), so a
// crash at any point leaves either the sources, or the merged file plus
// redundant sources whose ranges it contains — OpenWAL deletes contained
// files. A merge is only picked when it at least doubles the largest
// source, so a byte is rewritten O(log) times however long the log runs.

const (
	walActiveName = "active.seg"
	walSegPrefix  = "seg-"
	walSegSuffix  = ".seg"
)

// WALConfig parameterizes a segmented log.
type WALConfig struct {
	// FS is the filesystem writes go through; OS when nil. Reads use the
	// real filesystem (fault injection targets the write path).
	FS FS
	// SegmentBytes rotates the active segment when it reaches this size;
	// 4 MiB when 0. Also bounds how much data one compaction merge may
	// rewrite into a single file.
	SegmentBytes int64
	// CompactAfter triggers background compaction when at least this many
	// sealed segments exist; 8 when 0, negative disables compaction.
	CompactAfter int
	// OnCompact, when set, is called from the compactor goroutine after
	// each merge attempt with the number of segments folded (0 on error).
	OnCompact func(folded int, err error)
	// OnSync, when set, is called from the background syncer after each
	// pipelined fsync (CommitAsync) with its duration and outcome.
	OnSync func(took time.Duration, err error)
}

func (c WALConfig) withDefaults() WALConfig {
	if c.FS == nil {
		c.FS = OS
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CompactAfter == 0 {
		c.CompactAfter = 8
	}
	return c
}

// walSeg is one sealed, immutable segment file.
type walSeg struct {
	lo, hi uint64 // inclusive seal-sequence range
	path   string
	bytes  int64
}

// WAL is a segmented append-only record log. Append/Commit/CommitAsync/
// Seal/Close are single-goroutine (the owning shard worker); Stats, the
// internal compactor and the group-commit syncer synchronize on mu and
// syncMu respectively.
type WAL struct {
	dir string
	cfg WALConfig

	active     File   // nil until the first commit after open/seal
	activeSize int64  // bytes written to the active file so far
	buf        []byte // encoded records of the next frame
	out        []byte // framed bytes (plus header) awaiting write
	pending    int    // records appended since the last successful write-out
	sealDefer  int64  // don't retry a failed rotation until this size

	mu      sync.Mutex
	sealed  []walSeg
	nextSeq uint64
	busy    bool // a compactor goroutine is running

	// The pipelined group commit: CommitAsync writes the buffer inline and
	// hands the fsync to a lazily started syncer goroutine, so the writer
	// never waits on disk latency. Everything below syncMu is shared with
	// the syncer; syncCond signals fsync completion to synchronous commits.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool          // the syncer is inside an fsync right now
	unsynced int           // records written to the active file but not yet fsynced
	syncErr  error         // sticky async fsync failure, surfaced on the next commit
	syncReq  chan struct{} // cap-1 coalescing wakeup; nil until first CommitAsync
	syncWG   sync.WaitGroup

	wg      sync.WaitGroup
	aborted atomic.Bool

	bytesWritten atomic.Int64
	compactions  atomic.Int64
}

// WALStats is a point-in-time view of the log's shape and write volume.
type WALStats struct {
	Segments     int   // sealed segment files on disk
	Pending      int   // records appended but not yet fsynced
	BytesWritten int64 // total bytes written since open, compaction included
	Compactions  int64 // completed compaction merges
}

// segName builds the file name for a sealed range.
func segName(lo, hi uint64) string {
	return fmt.Sprintf("%s%09d-%09d%s", walSegPrefix, lo, hi, walSegSuffix)
}

// parseSegName extracts the range from a sealed-segment file name.
func parseSegName(name string) (lo, hi uint64, ok bool) {
	body, found := strings.CutPrefix(name, walSegPrefix)
	if !found {
		return 0, 0, false
	}
	body, found = strings.CutSuffix(body, walSegSuffix)
	if !found {
		return 0, 0, false
	}
	a, b, found := strings.Cut(body, "-")
	if !found {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseUint(a, 10, 64)
	hi, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil || lo == 0 || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// OpenWAL opens (creating if needed) the segmented log in dir, replays every
// recovered record through replay (which may be nil), and reports what was
// salvaged. Sealed segments must be intact; the last segment tolerates a
// torn tail, which is truncated away and surfaced in Recovery. The error
// return is reserved for real corruption — a wrong-magic file, a damaged
// non-last segment, a gap in the seal sequence — where continuing would
// silently drop acknowledged data.
func OpenWAL(dir string, cfg WALConfig, replay func(mdt.Record)) (*WAL, Recovery, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: wal dir: %w", err)
	}
	// A crash mid-compaction leaves a temp file; committed segments are
	// unaffected, so just sweep it.
	if _, err := RemoveTemps(dir); err != nil {
		return nil, Recovery{}, fmt.Errorf("store: wal temp sweep: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("store: wal dir: %w", err)
	}
	var segs []walSeg
	activePath := ""
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == walActiveName {
			activePath = filepath.Join(dir, e.Name())
			continue
		}
		if lo, hi, ok := parseSegName(e.Name()); ok {
			info, err := e.Info()
			if err != nil {
				return nil, Recovery{}, fmt.Errorf("store: wal segment %s: %w", e.Name(), err)
			}
			segs = append(segs, walSeg{lo: lo, hi: hi, path: filepath.Join(dir, e.Name()), bytes: info.Size()})
		}
	}
	// Drop segments whose range another segment contains: the redundant
	// sources of a compaction that crashed after its rename.
	segs, err = dropContained(cfg.FS, segs)
	if err != nil {
		return nil, Recovery{}, err
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].lo < segs[j].lo })
	next := uint64(1)
	for _, sg := range segs {
		if sg.lo != next {
			return nil, Recovery{}, fmt.Errorf("store: wal segment sequence broken at %s (want seq %d): %w",
				filepath.Base(sg.path), next, errBadSegment)
		}
		next = sg.hi + 1
	}

	w := &WAL{dir: dir, cfg: cfg, nextSeq: next}
	w.syncCond = sync.NewCond(&w.syncMu)
	// Replay sealed segments strictly; only the very last file on disk —
	// the active segment, or else the newest sealed one — may be
	// tolerantly truncated.
	var rec Recovery
	tail := walSeg{path: activePath}
	if activePath == "" && len(segs) > 0 {
		tail, segs = segs[len(segs)-1], segs[:len(segs)-1]
	}
	for _, sg := range segs {
		n, _, damage, err := readSegment(sg.path, replay)
		rec.Records += n
		if err == nil && damage != nil {
			err = fmt.Errorf("store: sealed wal segment %s damaged: %w", filepath.Base(sg.path), damage)
		}
		if err != nil {
			return nil, rec, err
		}
		w.sealed = append(w.sealed, sg)
	}
	if tail.path == "" {
		return w, rec, nil
	}
	n, clean, damage, err := readSegment(tail.path, replay)
	rec.Records += n
	if err != nil {
		return nil, rec, err
	}
	if damage != nil {
		rec.Err = fmt.Errorf("store: wal %s: %w", filepath.Base(tail.path), damage)
	}
	if n == 0 {
		// Nothing survived: drop the file, and reuse a sealed tail's range.
		if err := cfg.FS.Remove(tail.path); err != nil {
			return nil, rec, fmt.Errorf("store: wal drop empty tail: %w", err)
		}
		if tail.lo != 0 {
			w.nextSeq = tail.lo
		}
		return w, rec, nil
	}
	if damage != nil {
		if err := os.Truncate(tail.path, clean); err != nil {
			return nil, rec, fmt.Errorf("store: wal truncate %s: %w", filepath.Base(tail.path), err)
		}
	}
	tail.bytes = clean
	if tail.lo == 0 {
		// Seal the recovered active segment, so the new process always
		// starts a fresh active file and never appends to bytes it did not
		// write.
		seq := w.nextSeq
		sealedPath := filepath.Join(dir, segName(seq, seq))
		if err := cfg.FS.Rename(tail.path, sealedPath); err != nil {
			return nil, rec, fmt.Errorf("store: wal seal recovered active: %w", err)
		}
		tail = walSeg{lo: seq, hi: seq, path: sealedPath, bytes: clean}
		w.nextSeq = seq + 1
	}
	w.sealed = append(w.sealed, tail)
	return w, rec, nil
}

// dropContained removes segments whose seal range is contained in another
// segment's range and returns the survivors.
func dropContained(fsys FS, segs []walSeg) ([]walSeg, error) {
	keep := segs[:0]
	for i, sg := range segs {
		contained := false
		for j, other := range segs {
			if i == j {
				continue
			}
			if sg.lo >= other.lo && sg.hi <= other.hi &&
				(other.hi-other.lo > sg.hi-sg.lo || j < i) {
				contained = true
				break
			}
		}
		if contained {
			if err := fsys.Remove(sg.path); err != nil {
				return nil, fmt.Errorf("store: wal drop redundant segment: %w", err)
			}
			continue
		}
		keep = append(keep, sg)
	}
	return keep, nil
}

// readSegment replays one segment file (see scanSegment).
func readSegment(path string, replay func(mdt.Record)) (n int, clean int64, damage, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: wal read %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	n, clean, damage, err = scanSegment(f, replay)
	if err != nil {
		err = fmt.Errorf("store: wal %s: %w", filepath.Base(path), err)
	}
	return n, clean, damage, err
}

// Append buffers one record. The record is always retained; a non-nil error
// reports a failed size-triggered rotation (the log keeps appending to the
// oversized active segment and retries the rotation later).
func (w *WAL) Append(r mdt.Record) error {
	w.buf = r.AppendBinary(w.buf)
	w.pending++
	if size := w.activeSize + int64(len(w.out)+FrameHeader+len(w.buf)); size >= w.cfg.SegmentBytes && size >= w.sealDefer {
		if err := w.Seal(); err != nil {
			// Retrying a sick disk on every subsequent append would hammer
			// it; let the segment grow another quarter-threshold first.
			w.sealDefer = size + w.cfg.SegmentBytes/4
			return err
		}
		w.sealDefer = 0
	}
	return nil
}

// Pending reports how many appended records a crash right now would lose:
// records still buffered plus records written to the file but not fsynced.
func (w *WAL) Pending() int {
	w.syncMu.Lock()
	n := w.unsynced
	w.syncMu.Unlock()
	return w.pending + n
}

// flushBuf frames every buffered record and writes the frame to the active
// file (creating it on first use), moving the records from pending to
// unsynced — on disk, not yet durable. On a partial write the unwritten
// suffix stays buffered; the write was sequential, so the file still ends
// exactly where the retry resumes.
func (w *WAL) flushBuf() error {
	if len(w.buf) > 0 {
		if w.active == nil && len(w.out) == 0 {
			w.out = append(w.out, segmentMagic[:]...)
		}
		w.out = AppendFrame(w.out, w.buf)
		w.buf = w.buf[:0]
	}
	if len(w.out) == 0 {
		return nil
	}
	if w.active == nil {
		f, err := w.cfg.FS.Create(filepath.Join(w.dir, walActiveName))
		if err != nil {
			return fmt.Errorf("store: wal active: %w", err)
		}
		w.syncMu.Lock()
		w.active = f
		w.syncMu.Unlock()
	}
	n, err := w.active.Write(w.out)
	w.activeSize += int64(n)
	w.bytesWritten.Add(int64(n))
	if err != nil {
		w.out = w.out[:copy(w.out, w.out[n:])]
		return fmt.Errorf("store: wal write: %w", err)
	}
	w.out = w.out[:0]
	w.syncMu.Lock()
	w.unsynced += w.pending
	w.syncMu.Unlock()
	w.pending = 0
	return nil
}

// Commit makes every appended record durable: one buffered write plus one
// fsync covers all of them (group commit). It joins any fsync the syncer
// has in flight, so on return everything ever appended is on stable
// storage. On error nothing is marked durable; buffered bytes stay
// buffered and written bytes stay counted as unsynced for the next attempt.
func (w *WAL) Commit() error {
	if err := w.flushBuf(); err != nil {
		return err
	}
	w.syncMu.Lock()
	for w.syncing {
		w.syncCond.Wait()
	}
	err := w.syncErr
	w.syncErr = nil
	n := w.unsynced
	f := w.active
	if err != nil || n == 0 || f == nil {
		w.syncMu.Unlock()
		return err
	}
	w.syncing = true // excludes the syncer until this fsync resolves
	w.syncMu.Unlock()
	serr := f.Sync()
	w.syncMu.Lock()
	w.syncing = false
	if serr == nil {
		w.unsynced -= n
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if serr != nil {
		return fmt.Errorf("store: wal sync: %w", serr)
	}
	return nil
}

// CommitAsync is the hot-path group commit: it writes the buffer to the
// active file inline (one write syscall per batch) and hands the fsync to
// the background syncer, so the caller never waits on disk latency.
// Records count as Pending until the fsync completes. The returned error
// surfaces a write failure or a previous async fsync failure; the records
// involved stay pending and are retried by the next commit of either kind.
func (w *WAL) CommitAsync() error {
	if err := w.flushBuf(); err != nil {
		return err
	}
	w.syncMu.Lock()
	err := w.syncErr
	w.syncErr = nil
	n := w.unsynced
	w.syncMu.Unlock()
	if n == 0 {
		return err
	}
	if w.syncReq == nil {
		w.syncReq = make(chan struct{}, 1)
		w.syncWG.Add(1)
		go w.syncer()
	}
	select {
	case w.syncReq <- struct{}{}:
	default: // a wakeup is already queued; its fsync will cover these bytes
	}
	return err
}

// syncer is the group-commit fsync goroutine: each wakeup makes every byte
// written so far durable. Wakeups coalesce — one fsync can cover many
// CommitAsync calls — which is exactly the batching that keeps durable
// throughput close to non-durable.
func (w *WAL) syncer() {
	defer w.syncWG.Done()
	for range w.syncReq {
		w.syncMu.Lock()
		for w.syncing {
			w.syncCond.Wait()
		}
		n := w.unsynced
		f := w.active
		if n == 0 || f == nil {
			w.syncMu.Unlock()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()
		t0 := time.Now()
		err := f.Sync()
		w.syncMu.Lock()
		w.syncing = false
		if err == nil {
			w.unsynced -= n
		} else {
			w.syncErr = err
		}
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
		if w.cfg.OnSync != nil {
			w.cfg.OnSync(time.Since(t0), err)
		}
	}
}

// stopSyncer shuts the background syncer down and waits for it; after this
// no goroutine but the caller touches the active file.
func (w *WAL) stopSyncer() {
	if w.syncReq != nil {
		close(w.syncReq)
		w.syncWG.Wait()
		w.syncReq = nil
	}
}

// Seal commits, then rotates the active segment into a sealed immutable
// file with an atomic rename — the O(1) checkpoint. A header-only (or
// absent) active segment is a successful no-op, so sealing is idempotent
// and its cost never depends on how many records the log already holds.
func (w *WAL) Seal() error {
	if err := w.Commit(); err != nil {
		return err
	}
	if w.active == nil || w.activeSize <= int64(len(segmentMagic)) {
		return nil
	}
	w.mu.Lock()
	seq := w.nextSeq
	w.mu.Unlock()
	sealedPath := filepath.Join(w.dir, segName(seq, seq))
	if err := w.cfg.FS.Rename(filepath.Join(w.dir, walActiveName), sealedPath); err != nil {
		return fmt.Errorf("store: wal seal: %w", err)
	}
	// The Commit above left nothing unsynced, so a stale syncer wakeup
	// skips without touching the file; swap the pointer under syncMu so
	// the skip check never reads a closed handle.
	w.syncMu.Lock()
	w.active.Close()
	w.active = nil
	w.syncMu.Unlock()
	sg := walSeg{lo: seq, hi: seq, path: sealedPath, bytes: w.activeSize}
	w.activeSize = 0
	w.mu.Lock()
	w.sealed = append(w.sealed, sg)
	w.nextSeq = seq + 1
	trigger := w.cfg.CompactAfter > 0 && len(w.sealed) >= w.cfg.CompactAfter && !w.busy
	if trigger {
		w.busy = true
		w.wg.Add(1)
	}
	w.mu.Unlock()
	if trigger {
		go w.compact()
	}
	return nil
}

// Close commits any buffered records and releases the active file, after
// waiting out a running compaction and stopping the group-commit syncer.
// The directory remains a valid log.
func (w *WAL) Close() error {
	w.wg.Wait()
	w.stopSyncer()
	err := w.Commit()
	if w.active != nil {
		if cerr := w.active.Close(); err == nil {
			err = cerr
		}
		w.active = nil
	}
	return err
}

// Abort releases the log without committing buffered records — the
// crash-test switch: on-disk state stays exactly at the last commit. It
// still waits out a running compaction so a successor process opening the
// same directory never races the compactor's renames.
func (w *WAL) Abort() {
	w.aborted.Store(true)
	w.wg.Wait()
	w.stopSyncer()
	if w.active != nil {
		w.active.Close()
		w.active = nil
	}
	w.buf, w.out = nil, nil
	w.pending = 0
}

// Stats snapshots the log's shape.
func (w *WAL) Stats() WALStats {
	st := WALStats{
		Pending:      w.Pending(),
		BytesWritten: w.bytesWritten.Load(),
		Compactions:  w.compactions.Load(),
	}
	w.mu.Lock()
	st.Segments = len(w.sealed)
	w.mu.Unlock()
	return st
}

// compact folds adjacent runs of small sealed segments until no eligible
// run remains. A run is eligible when it merges at least two segments, fits
// in SegmentBytes, and at least doubles its largest member — the rule that
// bounds write amplification at O(log) rewrites per byte.
func (w *WAL) compact() {
	defer func() {
		w.mu.Lock()
		w.busy = false
		w.mu.Unlock()
		w.wg.Done()
	}()
	for !w.aborted.Load() {
		run := w.pickRun()
		if len(run) < 2 {
			return
		}
		folded, err := w.mergeRun(run)
		if w.cfg.OnCompact != nil {
			w.cfg.OnCompact(folded, err)
		}
		if err != nil {
			return
		}
		w.compactions.Add(1)
	}
}

// pickRun returns a copy of the oldest eligible run of sealed segments.
func (w *WAL) pickRun() []walSeg {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < len(w.sealed)-1; i++ {
		sum, largest := int64(0), int64(0)
		for j := i; j < len(w.sealed); j++ {
			b := w.sealed[j].bytes
			if sum+b > w.cfg.SegmentBytes && j > i {
				break
			}
			sum += b
			if b > largest {
				largest = b
			}
			if j > i && sum <= w.cfg.SegmentBytes && sum >= 2*largest {
				return append([]walSeg(nil), w.sealed[i:j+1]...)
			}
		}
	}
	return nil
}

// mergeRun rewrites run into one segment covering its combined range with
// SaveFile (temp-write, fsync, rename), then splices the in-memory list and
// deletes the sources. Frames are self-contained, so the merged file is the
// magic plus the sources' frames verbatim. A crash anywhere leaves a
// recoverable directory (see OpenWAL's contained-range sweep).
func (w *WAL) mergeRun(run []walSeg) (int, error) {
	lo, hi := run[0].lo, run[len(run)-1].hi
	data := append([]byte(nil), segmentMagic[:]...)
	for _, sg := range run {
		src, err := os.ReadFile(sg.path)
		if err != nil {
			return 0, fmt.Errorf("store: compact read: %w", err)
		}
		if len(src) < len(segmentMagic) || [8]byte(src[:len(segmentMagic)]) != segmentMagic {
			return 0, fmt.Errorf("store: compact source %s: %w", filepath.Base(sg.path), errBadSegment)
		}
		data = append(data, src[len(segmentMagic):]...)
	}
	written := int64(len(data))
	merged := walSeg{lo: lo, hi: hi, path: filepath.Join(w.dir, segName(lo, hi)), bytes: written}
	if err := SaveFile(w.cfg.FS, merged.path, data); err != nil {
		return 0, fmt.Errorf("store: compact: %w", err)
	}
	w.bytesWritten.Add(written)
	w.mu.Lock()
	for i := range w.sealed {
		if w.sealed[i].lo == lo {
			tail := append([]walSeg{merged}, w.sealed[i+len(run):]...)
			w.sealed = append(w.sealed[:i], tail...)
			break
		}
	}
	w.mu.Unlock()
	for _, sg := range run {
		// Best-effort: a leftover source is contained in the merged range
		// and swept at the next open.
		w.cfg.FS.Remove(sg.path)
	}
	return len(run), nil
}
