package history

import (
	"math/rand"
	"testing"
)

// FuzzDecodeBlock: neither block parser panics on any payload, and when
// both accept one they agree on the block's identity and summary; the
// records a full decode returns lie inside the summary's slot range.
func FuzzDecodeBlock(f *testing.F) {
	cfg := testConfig(3)
	slotSec := cfg.Grid.SlotLen.Seconds()
	rng := rand.New(rand.NewSource(1))
	var recs []Record
	for slot := 0; slot < 6; slot++ {
		feats, label := randFeats(rng, cfg.Amplify, slotSec)
		recs = append(recs, Record{Slot: slot, Spot: slot % 3, Label: label, Feats: feats})
	}
	f.Add(encodeBlock(0, recs, 6, cfg.Amplify, slotSec).payload)
	f.Add(encodeBlock(2, nil, 48, cfg.Amplify, slotSec).payload)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sum, errSum := parseSummaryBlock(payload)
		full, errFull := decodeBlock(payload, cfg.Amplify, slotSec)
		if errSum != nil || errFull != nil {
			return
		}
		if sum.day != full.day || sum.coveredBelow != full.coveredBelow || sum.sum != full.sum {
			t.Fatalf("summary parse %+v disagrees with full decode %+v", sum.sum, full.sum)
		}
		if len(full.recs) != full.sum.Count {
			t.Fatalf("decoded %d records, summary counts %d", len(full.recs), full.sum.Count)
		}
		for _, r := range full.recs {
			if r.Slot < full.sum.MinSlot || r.Slot > full.sum.MaxSlot {
				t.Fatalf("record slot %d outside [%d, %d]", r.Slot, full.sum.MinSlot, full.sum.MaxSlot)
			}
		}
	})
}
