package history

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestBitFlipEveryBitDetected: flip any single bit of a history generation
// and reopen. Each flip is detected — the open fails (a flipped magic), or
// the generation is cut at the damaged frame and the cut counted — and the
// reopened store serves only records of frames before the flip, exactly as
// written.
func TestBitFlipEveryBitDetected(t *testing.T) {
	cfg := durableConfig(t, 1)
	cfg.BlockRecords = 4
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	name := genFileName(0)
	image, err := os.ReadFile(filepath.Join(cfg.Dir, name))
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(image); bit++ {
		bad := bytes.Clone(image)
		bad[bit/8] ^= 1 << (bit % 8)
		flipped := cfg
		flipped.Dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(flipped.Dir, name), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(flipped)
		if err != nil {
			if bit/8 >= len(histMagic) {
				t.Fatalf("bit %d: open failed past the magic: %v", bit, err)
			}
			continue
		}
		if n := r.Stats().Truncations; n != 1 {
			t.Fatalf("bit %d: %d truncations, want 1", bit, n)
		}
		verifyPrefix(t, r, 0, cells)
		r.Close()
	}
}
