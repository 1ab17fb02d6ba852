package history

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"taxiqueue/internal/store"
)

// On-disk layout. History lives in generation files hist-<gen>.hb, each
// the 8-byte magic followed by store frames (internal/store/frame.go):
//
//	magic   "TQHIST2\n"
//	frame   header: uvarint slots, uvarint slotLen ns, uvarint nspots,
//	        uvarint grid start UnixNano, Factor + IntervalFactor
//	        (float64 LE each) — a store may only recover files written
//	        under its exact configuration — then uvarint baseCount
//	frames  one per sealed block, the encoded block payload
//
// store.FS exposes no append-open, so a restart continues into a *new*
// generation whose baseCount says how many logical blocks the earlier
// generations already carry. A generation opened to continue has
// baseCount = that durable count; a generation written to escape a write
// error (rotateLocked) has baseCount = 0 and re-frames every block, after
// which the older generations are removed. Recovery walks generations
// ascending, resets the block list to each file's baseCount, and appends
// its frames; the first damaged frame (bad length, checksum or summary)
// cuts the tail — the file is truncated at the last clean frame, later
// generations are removed, and the cut is counted. Because a rewrite
// generation frames blocks in logical order, a crash mid-rewrite leaves a
// clean prefix that is also a logical clean prefix.
const histMagic = "TQHIST2\n"

var errTornHeader = errors.New("history: damaged generation header")

func genFileName(gen int) string { return fmt.Sprintf("hist-%d.hb", gen) }

// genOf parses hist-<gen>.hb; ok is false for anything else.
func genOf(name string) (int, bool) {
	if !strings.HasPrefix(name, "hist-") || !strings.HasSuffix(name, ".hb") {
		return 0, false
	}
	n, err := strconv.Atoi(name[len("hist-") : len(name)-len(".hb")])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// headerBytes renders the magic and the header frame.
func (s *Store) headerBytes(baseCount int) []byte {
	stamp := make([]byte, 0, 64)
	stamp = binary.AppendUvarint(stamp, uint64(s.cfg.Grid.Slots))
	stamp = binary.AppendUvarint(stamp, uint64(s.cfg.Grid.SlotLen))
	stamp = binary.AppendUvarint(stamp, uint64(len(s.cfg.Spots)))
	stamp = binary.AppendUvarint(stamp, uint64(s.cfg.Grid.Start.UnixNano()))
	stamp = appendF64(stamp, s.cfg.Amplify.Factor)
	stamp = appendF64(stamp, s.cfg.Amplify.IntervalFactor)
	stamp = binary.AppendUvarint(stamp, uint64(baseCount))
	return store.AppendFrame([]byte(histMagic), stamp)
}

// failLocked poisons the current generation after a write/sync error: the
// file's tail is untrustworthy, so it is abandoned and the next seal
// rewrites everything into a fresh generation.
func (s *Store) failLocked(err error) {
	s.met.writeErrs.Inc()
	if s.file != nil {
		_ = s.file.Close()
		s.file = nil
	}
	s.needRewrite = true
}

// createGenLocked opens the next generation file and writes its header.
func (s *Store) createGenLocked(baseCount int) bool {
	gen := s.gen
	s.gen++
	name := filepath.Join(s.cfg.Dir, genFileName(gen))
	f, err := s.cfg.FS.Create(name)
	if err != nil {
		s.failLocked(err)
		return false
	}
	s.file = f
	s.genFiles = append(s.genFiles, name)
	hdr := s.headerBytes(baseCount)
	if _, err := f.Write(hdr); err != nil {
		s.failLocked(err)
		return false
	}
	s.bytes += int64(len(hdr))
	s.met.bytes.Set(s.bytes)
	return true
}

// persistLocked makes the block just appended to s.blocks durable: one
// frame, written and synced.
func (s *Store) persistLocked(b *block) {
	if s.needRewrite {
		s.rotateLocked()
		return // the rotate covered b (or failed and stays poisoned)
	}
	if s.file == nil && !s.createGenLocked(s.durable) {
		return
	}
	frame := store.AppendFrame(nil, b.payload)
	if _, err := s.file.Write(frame); err != nil {
		s.failLocked(err)
		return
	}
	if err := s.file.Sync(); err != nil {
		s.failLocked(err)
		return
	}
	s.bytes += int64(len(frame))
	s.met.bytes.Set(s.bytes)
	s.durable++
}

// blockPayloadLocked fetches one block's encoded payload for a rewrite:
// from memory for runtime-sealed blocks, from disk (via files, a
// per-rotate handle cache) for lazily-recovered ones.
func (s *Store) blockPayloadLocked(b *block, files map[string]*os.File) ([]byte, error) {
	if b.payload != nil {
		return b.payload, nil
	}
	ref := b.ref.Load()
	if ref == nil {
		return nil, errBadBlock
	}
	f := files[ref.name]
	if f == nil {
		var err error
		f, err = os.Open(ref.name)
		if err != nil {
			return nil, err
		}
		files[ref.name] = f
	}
	return ref.read(f)
}

// rotateLocked escapes a poisoned generation: every sealed block is
// re-framed into a fresh generation with baseCount 0, and on success the
// older generations are removed (best effort — a leftover older
// generation is harmless, the newer one's baseCount supersedes it).
// Disk-resident blocks have their payloads copied from the old
// generations and their refs re-pointed at the new one before the old
// files go away; refs only move once the whole rewrite is synced, so a
// failed rotate leaves every ref on the still-present old generations.
func (s *Store) rotateLocked() {
	if s.file != nil {
		_ = s.file.Close()
		s.file = nil
	}
	if !s.createGenLocked(0) {
		return
	}
	f, name := s.file, s.genFiles[len(s.genFiles)-1]
	bytes := int64(len(s.headerBytes(0)))
	oldFiles := make(map[string]*os.File)
	defer func() {
		for _, of := range oldFiles {
			_ = of.Close()
		}
	}()
	newRefs := make(map[*block]*fileRef)
	for _, b := range s.blocks {
		payload, err := s.blockPayloadLocked(b, oldFiles)
		if err != nil {
			s.failLocked(err)
			return
		}
		frame := store.AppendFrame(nil, payload)
		if _, err := f.Write(frame); err != nil {
			s.failLocked(err)
			return
		}
		if b.payload == nil {
			newRefs[b] = &fileRef{name: name, off: bytes, size: len(payload)}
		}
		bytes += int64(len(frame))
	}
	if err := f.Sync(); err != nil {
		s.failLocked(err)
		return
	}
	for b, ref := range newRefs {
		b.ref.Store(ref)
	}
	s.needRewrite = false
	s.durable = len(s.blocks)
	s.bytes = bytes
	s.met.bytes.Set(bytes)
	keep := s.genFiles[:0]
	for _, old := range s.genFiles {
		if old == name {
			keep = append(keep, old)
			continue
		}
		if err := s.cfg.FS.Remove(old); err != nil {
			keep = append(keep, old)
		}
	}
	s.genFiles = keep
}

// syncLocked is the Flush durability barrier: it completes any owed
// rewrite and syncs the open generation.
func (s *Store) syncLocked() {
	if s.needRewrite {
		s.rotateLocked()
		return
	}
	if s.file == nil {
		return
	}
	if err := s.file.Sync(); err != nil {
		s.failLocked(err)
	}
}

// recover loads the generation files under cfg.Dir, keeping the longest
// clean prefix of blocks. Damage (a torn header, an impossible baseCount,
// a frame with a bad length/checksum or an unparsable summary) truncates the
// damaged file at its last clean frame, removes all later generations,
// and counts one truncation; a complete header written under a different
// configuration is a hard error. Reads and repairs use the real
// filesystem — only the write path goes through the (fault-injectable)
// cfg.FS, mirroring the WAL.
//
// Recovery is lazy: every frame is streamed through a reused buffer and
// checksummed, but only the summary prefix is decoded — the columns stay
// on disk behind a fileRef and materialize on first use (see lazy.go).
// Open-time memory is therefore proportional to the block count, not the
// record count.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("history: recover: %w", err)
	}
	gens := make([]int, 0, len(ents))
	for _, e := range ents {
		if g, ok := genOf(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Ints(gens)
	if len(gens) > 0 {
		s.gen = gens[len(gens)-1] + 1
	}
	damaged := false
	for _, gen := range gens {
		name := filepath.Join(s.cfg.Dir, genFileName(gen))
		if damaged {
			_ = os.Remove(name)
			continue
		}
		g, kept, cut, err := s.recoverGen(name)
		if err != nil {
			return err
		}
		if g == nil || g.baseCount > len(s.blocks) {
			// An unusable header, or one claiming a longer durable prefix
			// than the earlier generations kept: drop the file entirely.
			_ = os.Remove(name)
			damaged = true
			s.met.truncations.Inc()
			continue
		}
		// A rewrite generation supersedes everything beyond its base.
		s.blocks = append(s.blocks[:g.baseCount], g.frames...)
		if cut {
			if err := os.Truncate(name, kept); err != nil {
				return fmt.Errorf("history: truncate %s: %w", name, err)
			}
			damaged = true
			s.met.truncations.Inc()
		}
		s.genFiles = append(s.genFiles, name)
		s.bytes += kept
	}
	return nil
}

// recoveredGen is one generation file's parse result.
type recoveredGen struct {
	baseCount int
	frames    []*block
}

// recoverGen streams one generation file through the frame scanner: the
// first frame is the header, every later one a block whose summary prefix
// is parsed into a lazy block. It returns the parsed content (nil when the
// header itself is unusable), the clean byte length and whether damage
// ended the scan early. The error is reserved for a foreign file, a header
// stamped with a different configuration, or an unreadable file.
func (s *Store) recoverGen(name string) (*recoveredGen, int64, bool, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, 0, false, fmt.Errorf("history: recover %s: %w", name, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(histMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, true, nil // torn creation
	}
	if string(magic) != histMagic {
		return nil, 0, false, fmt.Errorf("history: %s: not a %s history file", name, strings.TrimSpace(histMagic))
	}
	var g *recoveredGen
	var hardErr error
	clean, damage := store.ScanFrames(br, func(off int64, payload []byte) error {
		if g == nil {
			if g, hardErr = s.parseHeader(name, payload); g == nil {
				return errTornHeader
			}
			return nil
		}
		b, err := parseSummaryBlock(payload)
		if err != nil {
			return err
		}
		b.ref.Store(&fileRef{name: name, off: int64(len(histMagic)) + off, size: len(payload)})
		g.frames = append(g.frames, b)
		return nil
	})
	if hardErr != nil {
		return nil, 0, false, hardErr
	}
	return g, int64(len(histMagic)) + clean, damage != nil, nil
}

// parseHeader checks a header frame's configuration stamp and returns the
// generation's baseCount. It returns nil and no error for an unparsable
// header, and a hard error for one written under another configuration.
func (s *Store) parseHeader(name string, payload []byte) (*recoveredGen, error) {
	r := &byteReader{buf: payload}
	slots := r.uvarint()
	slotLen := r.uvarint()
	nspots := r.uvarint()
	start := r.uvarint()
	factor := r.f64()
	ifactor := r.f64()
	base := r.uvarint()
	if r.err != nil || r.off != len(payload) || base > math.MaxInt32 {
		return nil, nil
	}
	if int(slots) != s.cfg.Grid.Slots ||
		int64(slotLen) != int64(s.cfg.Grid.SlotLen) ||
		int(nspots) != len(s.cfg.Spots) ||
		int64(start) != s.cfg.Grid.Start.UnixNano() ||
		!sameBits(factor, s.cfg.Amplify.Factor) ||
		!sameBits(ifactor, s.cfg.Amplify.IntervalFactor) {
		return nil, fmt.Errorf("history: %s: config mismatch (written under a different grid/spots/amplification)", name)
	}
	return &recoveredGen{baseCount: int(base)}, nil
}
