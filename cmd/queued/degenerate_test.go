package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/obs"
)

// emptyBatchResult is a batch analysis that detected no queue spots at all
// — a thin feed, an over-tight MinPoints, or a first boot on bad data. The
// query surface has to answer something sane for it.
func emptyBatchResult() *core.Result {
	cfg := core.DefaultEngineConfig()
	cfg.Grid = core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	return &core.Result{Config: cfg}
}

// TestForecastNoSpotsDetected: against an empty spot set the pre-PR
// handler answered 400 "need spot=0..-1" — a hint no request can satisfy.
// It must answer 503 "no spots detected" for every spot parameter.
func TestForecastNoSpotsDetected(t *testing.T) {
	fc, err := newForecastLearner(emptyBatchResult(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	fs := &forecastServer{fc: fc}
	for _, url := range []string{"/forecast", "/forecast?spot=0", "/forecast?spot=-1"} {
		w := httptest.NewRecorder()
		fs.handleForecast(w, httptest.NewRequest("GET", url, nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s -> %d, want 503", url, w.Code)
		}
		if body := w.Body.String(); !strings.Contains(body, "no spots detected") || strings.Contains(body, "-1") {
			t.Errorf("%s body %q, want a 'no spots detected' answer without the 0..-1 range", url, body)
		}
	}
}

// TestHistoryNoSpotsDetected: the same degenerate input through the
// history analytics endpoints (spotParam is shared by /history and
// /transitions).
func TestHistoryNoSpotsDetected(t *testing.T) {
	hist, err := newHistoryStore(t.TempDir(), emptyBatchResult(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hist.Close() })
	mux := http.NewServeMux()
	registerHistory(mux, &historyServer{hist: hist})
	for _, url := range []string{"/history?spot=0", "/history", "/transitions?spot=0"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s -> %d, want 503", url, w.Code)
		}
		if body := w.Body.String(); !strings.Contains(body, "no spots detected") || strings.Contains(body, "-1") {
			t.Errorf("%s body %q, want a 'no spots detected' answer without the 0..-1 range", url, body)
		}
	}
}

// TestHistoryInvertedRange: from > to is a client mistake (swapped
// parameters, wrong day) and answers 400 — not the empty 200 that used to
// hide the typo. An empty-but-ordered range still answers 200.
func TestHistoryInvertedRange(t *testing.T) {
	ts, hist, _ := historyFixture(t, true)
	grid := hist.Grid()
	at := func(slots int) string {
		return grid.Start.Add(time.Duration(slots) * grid.SlotLen).UTC().Format(time.RFC3339)
	}

	for _, url := range []string{
		"/history?spot=0&from=" + at(9) + "&to=" + at(5), // swapped window
		"/history?spot=0&from=" + at(9999),               // from past everything recorded
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", url, resp.StatusCode)
		}
	}
	// from == to: a legal, empty window.
	var out struct {
		Points []historyPointJSON `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/history?spot=0&from="+at(5)+"&to="+at(5), &out); code != 200 || len(out.Points) != 0 {
		t.Fatalf("from==to: status %d with %d points, want empty 200", code, len(out.Points))
	}
}
