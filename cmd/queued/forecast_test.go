package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/obs"
)

// testForecastServer wires a forecast learner onto the batch test server
// and folds one observed day so the profiles answer.
func testForecastServer(t *testing.T) (*server, *forecastServer) {
	t.Helper()
	srv := testServer()
	res := srv.result()
	// Give the fixture spot real per-slot features so the learned profile
	// carries a non-zero wait (a saturated taxi queue all day).
	feats := make([]core.SlotFeatures, 48)
	for i := range feats {
		feats[i] = core.SlotFeatures{
			TWait: 10 * time.Minute, NArr: 9, QLen: 3,
			TDep: 4 * time.Minute, NDep: 6,
		}
	}
	res.Spots[0].Features = feats
	fc, err := newForecastLearner(res, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	if err := fc.ObserveResult(0, res); err != nil {
		t.Fatal(err)
	}
	srv.fc = fc
	return srv, &forecastServer{fc: fc}
}

func TestHandleForecast(t *testing.T) {
	_, fs := testForecastServer(t)
	at := time.Date(2026, 1, 7, 18, 30, 0, 0, time.UTC) // two days past the observed one
	req := httptest.NewRequest("GET", "/forecast?spot=0&at="+at.Format(time.RFC3339), nil)
	w := httptest.NewRecorder()
	fs.handleForecast(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var got forecastJSON
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Spot != 0 || got.Day != 2 || got.Slot != 37 {
		t.Fatalf("located (spot %d, day %d, slot %d), want (0, 2, 37)", got.Spot, got.Day, got.Slot)
	}
	// The test fixture labels every slot C3; one observed day's profile
	// must answer (not "none") and carry that label.
	if got.Source == "none" || got.Context != "C3" {
		t.Fatalf("source %q context %q, want an observed C3 answer", got.Source, got.Context)
	}
	if got.Weight <= 0 {
		t.Fatalf("weight %v, want > 0", got.Weight)
	}
	if !got.T.Equal(at) {
		t.Fatalf("slot time %v, want %v (30-min-aligned query)", got.T, at)
	}
}

func TestHandleForecastDefaultsToNow(t *testing.T) {
	_, fs := testForecastServer(t)
	// No at=: the handler uses the wall clock clamped to the grid start.
	// Either way the evaluation must succeed.
	w := httptest.NewRecorder()
	fs.handleForecast(w, httptest.NewRequest("GET", "/forecast?spot=0", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var got forecastJSON
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Day < 0 || got.Slot < 0 || got.Slot >= 48 {
		t.Fatalf("default-at located (day %d, slot %d)", got.Day, got.Slot)
	}
}

func TestHandleForecastValidation(t *testing.T) {
	_, fs := testForecastServer(t)
	for _, url := range []string{
		"/forecast",                                // missing spot
		"/forecast?spot=x",                         // unparsable spot
		"/forecast?spot=-1",                        // negative spot
		"/forecast?spot=1",                         // out of range (1 spot)
		"/forecast?spot=0&at=teatime",              // bad at
		"/forecast?spot=0&at=2025-12-31T00:00:00Z", // at precedes the grid
	} {
		w := httptest.NewRecorder()
		fs.handleForecast(w, httptest.NewRequest("GET", url, nil))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", url, w.Code)
		}
	}
}

// TestHandleRecommendForecasted: with the learner wired into the server,
// /recommend responses carry eta_s/expected_wait_s/forecasted, and the
// commuter ranking still surfaces the C3 spot.
func TestHandleRecommendForecasted(t *testing.T) {
	srv, _ := testForecastServer(t)
	req := httptest.NewRequest("GET", "/recommend?for=commuter&lat=1.30&lon=103.82", nil)
	w := httptest.NewRecorder()
	srv.handleRecommend(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var recs []struct {
		Context    string  `json:"context"`
		ETAS       float64 `json:"eta_s"`
		ExpWaitS   float64 `json:"expected_wait_s"`
		Forecasted bool    `json:"forecasted"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Context != "C3" {
		t.Fatalf("recs = %+v", recs)
	}
	if !recs[0].Forecasted {
		t.Fatal("learner wired in but response not forecasted")
	}
	if recs[0].ETAS <= 0 {
		t.Fatalf("eta_s %v, want > 0 (walking ~1.1 km)", recs[0].ETAS)
	}
	if recs[0].ExpWaitS <= 0 {
		t.Fatalf("expected_wait_s %v, want the profile's C3 wait", recs[0].ExpWaitS)
	}
}

// TestRecommendAtDefault: without a live feed the default instant is noon
// of the batch day; with defaultAt wired (live mode) it is the feed's
// newest final slot.
func TestRecommendAtDefault(t *testing.T) {
	srv := testServer()
	v := srv.view.Load()
	noon := v.grid.Start.Add(12 * time.Hour)
	if got := srv.recommendAt(v); !got.Equal(noon) {
		t.Fatalf("batch default %v, want noon %v", got, noon)
	}

	latest := v.grid.Start.Add(17*time.Hour + 30*time.Minute)
	srv.defaultAt = func() (time.Time, bool) { return latest, true }
	if got := srv.recommendAt(v); !got.Equal(latest) {
		t.Fatalf("live default %v, want newest final slot %v", got, latest)
	}

	// A feed that has finalized nothing yet falls back to noon.
	srv.defaultAt = func() (time.Time, bool) { return time.Time{}, false }
	if got := srv.recommendAt(v); !got.Equal(noon) {
		t.Fatalf("empty-feed default %v, want noon %v", got, noon)
	}
}

// TestRecommendDefaultAtServed: the default instant actually drives the
// ranking — a spot that is only attractive in the evening appears for
// the live default (evening) but not the batch default (noon).
func TestRecommendDefaultAtServed(t *testing.T) {
	srv := testServer()
	v := srv.view.Load()
	sa := &v.result.Spots[0]
	for i := range sa.Labels {
		sa.Labels[i] = core.C2 // passengers piling up...
	}
	for i := 0; i < 30; i++ {
		sa.Labels[i] = core.C3 // ...but only after 15:00
	}

	get := func() int {
		w := httptest.NewRecorder()
		srv.handleRecommend(w, httptest.NewRequest("GET", "/recommend?for=driver&lat=1.30&lon=103.82", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var recs []json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &recs); err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	if n := get(); n != 0 {
		t.Fatalf("noon default served %d driver recs for a C3-at-noon spot", n)
	}
	srv.defaultAt = func() (time.Time, bool) { return v.grid.Start.Add(18 * time.Hour), true }
	if n := get(); n != 1 {
		t.Fatalf("evening default served %d driver recs, want 1", n)
	}
}
