package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueAt(start, 250, 1000); !got.Equal(start.Add(250 * time.Millisecond)) {
		t.Errorf("dueAt(250 @ 1000/s) = %v", got.Sub(start))
	}
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{-time.Millisecond, 0}, {0, 1}, {999 * time.Microsecond, 1},
		{time.Millisecond, 2}, {10 * time.Second, 50},
	} {
		if got := dueBy(c.d, 1000, 50); got != c.want {
			t.Errorf("dueBy(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// A stall in one read must show in the reads queued behind it: latency runs
// from the due time, not from when the read was finally sent.
func TestOpenLoopChargesStallToLaterReads(t *testing.T) {
	res := openLoop(1000, 20*time.Millisecond, func(i int) (int, bool) {
		if i == 0 {
			time.Sleep(10 * time.Millisecond)
		}
		return 0, true
	}, nil)
	if len(res.samples) != 20 {
		t.Fatalf("%d samples, want 20", len(res.samples))
	}
	// Read 1 was due 1 ms in and could only start after read 0's 10 ms.
	if s := res.samples[1]; s.lat < 8*time.Millisecond || s.late < 8*time.Millisecond {
		t.Errorf("read 1: latency %v, late %v; want both ≥ 8ms", s.lat, s.late)
	}
}

func TestLittleErr(t *testing.T) {
	if got := littleErr(0.4, 200, 0.002); math.Abs(got) > 1e-12 {
		t.Errorf("exact fit: %g", got)
	}
	if got := littleErr(0.5, 200, 0.002); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("25%% over: %g", got)
	}
	if got := littleErr(0.3, 200, 0.002); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("25%% under: %g", got)
	}
}

// With a fixed 2 ms service time at 200 reads/s, L = λW = 0.4: the sampled
// in-flight mean must agree within the benchmark's stated tolerance.
func TestOpenLoopSatisfiesLittlesLaw(t *testing.T) {
	res := openLoop(200, time.Second, func(int) (int, bool) {
		time.Sleep(2 * time.Millisecond)
		return 0, true
	}, nil)
	if e := res.little(); e > littleTolerance {
		t.Errorf("little_err = %.3f (L = %.3f), want ≤ %g", e, res.inflight, littleTolerance)
	}
}

func TestHistQuantile(t *testing.T) {
	before := scrape{
		{name: "h_bucket", labels: map[string]string{"le": "1"}, value: 0},
		{name: "h_bucket", labels: map[string]string{"le": "2"}, value: 0},
		{name: "h_bucket", labels: map[string]string{"le": "+Inf"}, value: 0},
	}
	after := scrape{
		{name: "h_bucket", labels: map[string]string{"le": "1"}, value: 10},
		{name: "h_bucket", labels: map[string]string{"le": "2"}, value: 30},
		{name: "h_bucket", labels: map[string]string{"le": "+Inf"}, value: 30},
	}
	// Rank 15 of 30 sits a quarter of the way into the (1, 2] bucket.
	if got := histQuantile(before, after, "h", 0.5); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("p50 = %g, want 1.25", got)
	}
	if !math.IsNaN(histQuantile(before, before, "h", 0.5)) {
		t.Error("a histogram with no new observations has no quantile")
	}
}

// Timing reads from when they were sent hides the queue behind a slow
// server (coordinated omission); the Little's-Law check must catch it.
func TestLittleCatchesSendTimedLatency(t *testing.T) {
	const rate, service = 1000.0, 3 * time.Millisecond
	var samples []readSample
	var free time.Duration // when the connection is next idle
	for i := 0; i < 100; i++ {
		due := time.Duration(float64(i) * float64(time.Second) / rate)
		sent := max(due, free)
		free = sent + service
		samples = append(samples, readSample{lat: service, late: sent - due, end: free})
	}
	res := loadResult{samples: samples, window: free}
	res.inflight = sampleInflight(samples, rate, res.window, inflightSamples)
	if e := res.little(); e <= littleTolerance {
		t.Errorf("send-timed latencies pass the check: little_err = %.3f", e)
	}
	for i := range res.samples {
		s := &res.samples[i]
		s.lat = s.end - time.Duration(float64(i)*float64(time.Second)/rate)
	}
	if e := res.little(); e > littleTolerance {
		t.Errorf("due-timed latencies fail the check: little_err = %.3f", e)
	}
}

func TestMarkStolen(t *testing.T) {
	ms := time.Millisecond
	samples := []readSample{
		{end: 5 * ms, lat: 1 * ms},     // 4–5 ms: before any theft
		{end: 12 * ms, lat: 3 * ms},    // 9–12 ms: overlaps 10–20 ms
		{end: 65 * ms, lat: 5 * ms},    // 60–65 ms: in the wake of 10–20 ms
		{end: 101 * ms, lat: 1 * ms},   // 100–101 ms: past the wake
		{end: 400 * ms, lat: 200 * ms}, // 200–400 ms: spans 300–310 ms
		{end: 401 * ms, lat: 1 * ms},   // 400–401 ms: past the wake
	}
	markStolen(samples, []interval{{10 * ms, 20 * ms}, {300 * ms, 310 * ms}})
	for i, want := range []bool{false, true, true, false, true, false} {
		if samples[i].stolen != want {
			t.Errorf("sample %d stolen = %v, want %v", i, samples[i].stolen, want)
		}
	}
	r := loadResult{samples: samples}
	if got := r.stolenShare(); got != 0.5 {
		t.Errorf("stolen share = %g, want 0.5", got)
	}
	if got := len(r.clean().samples); got != len(samples) {
		t.Errorf("with fewer than %d unstolen reads, clean keeps all %d, got %d", minClean, len(samples), got)
	}
}
