package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

func rec(day, hour int, id string) mdt.Record {
	return mdt.Record{
		Time:   time.Date(2026, 1, 5+day, hour, 0, 0, 0, time.UTC),
		TaxiID: id, Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: 10, State: mdt.Free,
	}
}

func TestSplitByDay(t *testing.T) {
	recs := []mdt.Record{
		rec(0, 8, "A"), rec(0, 23, "B"),
		rec(1, 0, "A"), rec(1, 12, "B"),
		rec(2, 1, "A"),
	}
	days := splitByDay(recs)
	if len(days) != 3 {
		t.Fatalf("split into %d days, want 3", len(days))
	}
	if len(days[0]) != 2 || len(days[1]) != 2 || len(days[2]) != 1 {
		t.Fatalf("day sizes %d/%d/%d", len(days[0]), len(days[1]), len(days[2]))
	}
	if got := splitByDay(nil); len(got) != 0 {
		t.Fatal("empty input split into days")
	}
}

func TestReadRecordsTextAndStore(t *testing.T) {
	dir := t.TempDir()
	recs := []mdt.Record{rec(0, 8, "A"), rec(0, 9, "A"), rec(0, 10, "B")}

	textPath := filepath.Join(dir, "day.log")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdt.WriteText(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := readRecords(textPath, "text")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("text read %d records", len(got))
	}

	storePath := filepath.Join(dir, "day.tqs")
	if err := store.SaveFile(store.OS, storePath, store.EncodeSegment(recs)); err != nil {
		t.Fatal(err)
	}
	got, err = readRecords(storePath, "store")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("store read %d records", len(got))
	}

	if _, err := readRecords(textPath, "parquet"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := readRecords(filepath.Join(dir, "missing"), "text"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteGeoJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spots.geojson")
	res := &core.Result{
		Config: core.EngineConfig{Grid: core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))},
		Spots: []core.SpotAnalysis{{
			Spot:   core.QueueSpot{Pos: geo.Point{Lat: 1.3044, Lon: 103.8335}, PickupCount: 42},
			Labels: []core.QueueType{core.C1, core.C2},
		}},
	}
	if err := writeGeoJSON(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Geometry struct {
				Coordinates [2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Type != "FeatureCollection" || len(doc.Features) != 1 {
		t.Fatalf("document shape wrong: %+v", doc)
	}
	ft := doc.Features[0]
	if ft.Geometry.Coordinates[0] != 103.8335 || ft.Geometry.Coordinates[1] != 1.3044 {
		t.Fatalf("coordinates not [lon, lat]: %v", ft.Geometry.Coordinates)
	}
	if ft.Properties["pickups"].(float64) != 42 || ft.Properties["c1"].(float64) != 1 {
		t.Fatalf("properties wrong: %v", ft.Properties)
	}
}
