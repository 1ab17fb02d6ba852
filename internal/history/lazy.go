package history

import (
	"container/list"
	"os"
	"sync"

	"taxiqueue/internal/obs"
	"taxiqueue/internal/store"
)

// Lazy block materialization. Open no longer decodes recovered blocks:
// recovery CRC-checks every frame and parses only the summary prefix,
// leaving each payload on disk behind a fileRef. The first query that
// needs a disk-resident block's records reads and decodes the payload on
// demand, and a small LRU of decoded blocks absorbs the scan locality of
// range queries. Runtime-sealed blocks are untouched — their records are
// already in memory, and they never enter the cache.
//
// Reads stay lock-free on the published index; only the cache itself
// takes a short internal mutex. Two readers racing a cold block may both
// decode it (the second insert wins), which is benign: decode is a pure
// function of the immutable on-disk frame.

// fileRef locates one block's frame inside a generation file. The frame
// is re-verified at every load, so a read can never serve bytes that
// differ from what recovery admitted.
type fileRef struct {
	name string
	off  int64 // the frame's offset in the file
	size int   // its payload length
}

// read fetches and verifies the payload from f (an open handle on
// ref.name).
func (ref *fileRef) read(f *os.File) ([]byte, error) {
	return store.ReadFrameAt(f, ref.off, ref.size)
}

// blockCache is the decoded-block LRU: block identity → decoded records.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	items map[*block]*list.Element
	lru   *list.List // front = most recently used; values are *cacheEntry

	hits      *obs.Counter
	evictions *obs.Counter
}

type cacheEntry struct {
	b    *block
	recs []Record
}

func newBlockCache(capBlocks int, met *metrics) *blockCache {
	return &blockCache{
		cap:       capBlocks,
		items:     make(map[*block]*list.Element),
		lru:       list.New(),
		hits:      met.cacheHits,
		evictions: met.cacheEvictions,
	}
}

// get returns b's cached records, refreshing its recency.
func (c *blockCache) get(b *block) ([]Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[b]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).recs, true
}

// put installs b's decoded records, evicting from the cold end past cap.
func (c *blockCache) put(b *block, recs []Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[b]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).recs = recs
		return
	}
	c.items[b] = c.lru.PushFront(&cacheEntry{b: b, recs: recs})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).b)
		c.evictions.Inc()
	}
}

// blockRecs returns b's records, materializing disk-resident blocks
// through the decoded-block cache. Queries call this instead of touching
// b.recs directly.
func (s *Store) blockRecs(b *block) []Record {
	if b.sum.Count == 0 {
		return nil
	}
	if b.recs != nil {
		return b.recs
	}
	if recs, ok := s.cache.get(b); ok {
		return recs
	}
	recs := s.materialize(b)
	if recs != nil {
		s.cache.put(b, recs)
	}
	return recs
}

// materialize reads and decodes one disk-resident block. A rotate can
// re-point the ref at a fresh generation and then remove the old file, so
// a failed load retries against a ref that changed mid-read; a failure
// with a stable ref is final (and should be impossible short of the disk
// vanishing — the frame was CRC-clean at recovery).
func (s *Store) materialize(b *block) []Record {
	for attempt := 0; attempt < 4; attempt++ {
		ref := b.ref.Load()
		if ref == nil {
			return nil
		}
		payload, err := readRef(ref)
		if err != nil {
			if b.ref.Load() != ref {
				continue
			}
			return nil
		}
		dec, err := decodeBlock(payload, s.cfg.Amplify, s.slotSec)
		if err != nil {
			if b.ref.Load() != ref {
				continue
			}
			return nil
		}
		return dec.recs
	}
	return nil
}

// readRef opens, reads and verifies one payload. Reads use the real
// filesystem — like recovery and the WAL, only writes go through the
// fault-injectable cfg.FS.
func readRef(ref *fileRef) ([]byte, error) {
	f, err := os.Open(ref.name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ref.read(f)
}
