// Package store is the durable record layer: the repository's stand-in for
// the log database the deployed engine reads from (§7.1). It holds one
// on-disk primitive, the CRC-framed file (frame.go), and what is built on
// it:
//
//   - the segmented write-ahead log of raw MDT records that live ingest
//     replays on restart (wal.go), the source of truth;
//   - sealed segment files, the same format the WAL seals, which the
//     command-line tools write and read as their binary record format.
//
// The history store (internal/history) frames its blocks with the same
// primitive. Forecast profiles are not stored at all: they are a pure
// function of the history and are rebuilt from it on every start.
//
// Writes go through the FS seam so the chaos harness can inject disk
// faults; reads use the real filesystem.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"taxiqueue/internal/mdt"
)

// Recovery reports what a tolerant open salvaged.
type Recovery struct {
	// Records is the number of records recovered.
	Records int
	// Err is the damage the reader stopped at, naming the file; nil for a
	// clean log.
	Err error
}

// Truncated reports whether damage was found and only a prefix kept.
func (r Recovery) Truncated() bool { return r.Err != nil }

// tempSuffix marks SaveFile temp files; RemoveTemps matches on it.
const tempSuffix = ".tmp"

// SaveFile atomically writes data to path: the bytes go to a fresh temp
// file in path's directory, which is synced and renamed over path, so a
// crash mid-save never corrupts or truncates an existing copy. A failed
// save removes its temp file and leaves path untouched. Errors are wrapped
// with the destination path.
func SaveFile(fsys FS, path string, data []byte) error {
	fail := func(err error) error { return fmt.Errorf("store: save %s: %w", path, err) }
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempSuffix+"-*")
	if err != nil {
		return fail(err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fail(err)
	}
	// CreateTemp defaults to 0600; match what os.Create would have given.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fail(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fail(err)
	}
	return nil
}

// RemoveTemps deletes stale SaveFile temp files left in dir by a crash
// between temp-write and rename. The committed files are untouched — the
// rename either happened (new copy) or did not (old copy); either way the
// temp is garbage. Returns the removed paths.
func RemoveTemps(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+tempSuffix+"-*"))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return removed, err
		}
		removed = append(removed, m)
	}
	return removed, nil
}

// segmentMagic is the header of every record segment file: the WAL's
// active and sealed segments and the tools' segment files.
var segmentMagic = [8]byte{'T', 'Q', 'S', 'T', '4', 0, 0, 0}

var errBadSegment = errors.New("store: not a TQST4 segment file")

// segmentFrameBytes is the payload size at which EncodeSegment starts a
// new frame.
const segmentFrameBytes = 64 << 10

// EncodeSegment renders recs as a sealed segment file: the magic, then
// the records in order, packed into frames of about 64 KiB. Write it with
// SaveFile.
func EncodeSegment(recs []mdt.Record) []byte {
	out := append([]byte(nil), segmentMagic[:]...)
	var payload []byte
	for _, r := range recs {
		payload = r.AppendBinary(payload)
		if len(payload) >= segmentFrameBytes {
			out = AppendFrame(out, payload)
			payload = payload[:0]
		}
	}
	if len(payload) > 0 {
		out = AppendFrame(out, payload)
	}
	return out
}

// ReadSegment reads a whole segment file strictly: any damage is an
// error, and no record is returned with it.
func ReadSegment(r io.Reader) ([]mdt.Record, error) {
	var recs []mdt.Record
	_, _, damage, err := scanSegment(r, func(rec mdt.Record) { recs = append(recs, rec) })
	if err == nil {
		err = damage
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// scanSegment replays one segment's records in order. The hard error
// return is for input that was never a segment (wrong magic). Damage past
// a valid magic comes back in damage, with clean naming the byte length
// of the longest valid prefix; every record of that prefix was replayed
// and none after it. A frame is replayed whole or not at all.
func scanSegment(r io.Reader, replay func(mdt.Record)) (n int, clean int64, damage, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [len(segmentMagic)]byte
	if _, rerr := io.ReadFull(br, magic[:]); rerr != nil {
		// Shorter than a header: a creation the crash tore. Nothing in it
		// was ever acknowledged, so it is damage, not corruption.
		return 0, 0, fmt.Errorf("store: torn segment header: %w", io.ErrUnexpectedEOF), nil
	}
	if magic != segmentMagic {
		return 0, 0, nil, errBadSegment
	}
	var batch []mdt.Record
	frames, damage := ScanFrames(br, func(_ int64, payload []byte) error {
		batch = batch[:0]
		for len(payload) > 0 {
			rec, sz, err := mdt.DecodeBinary(payload)
			if err != nil {
				return fmt.Errorf("record %d: %w", len(batch), err)
			}
			batch = append(batch, rec)
			payload = payload[sz:]
		}
		if replay != nil {
			for _, rec := range batch {
				replay(rec)
			}
		}
		n += len(batch)
		return nil
	})
	return n, int64(len(segmentMagic)) + frames, damage, nil
}
