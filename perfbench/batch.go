package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/history"
	"taxiqueue/internal/mdt"
)

// The batch-day workload: the paper's daily two-tier pass, in process.
// The timed pipeline is clean.Clean → core.Engine.Analyze →
// history.BackfillResult → forecast.Learner.ObserveResult, repeated for
// the measured seconds; batch_s is the median repetition.

const (
	decodeReps  = 5    // input decodes per batch-day run; the median is setup_s
	minBatchRep = 3    // pipeline passes, even when one outlasts --seconds
	reopenReps  = 10   // history reopens + forecast rebuilds after each pass
	batchReads  = 3000 // in-process history and forecast queries after each pass
)

var cleanCfg = clean.Config{ValidFrame: citymap.Island}

// engineConfig is queued's engine configuration (cmd/queued recompute):
// the paper's defaults with ε = 15 m and MinPts = 50.
func engineConfig(parallelism int) core.EngineConfig {
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 50}
	cfg.Parallelism = parallelism
	return cfg
}

// historyConfig and forecastConfig are queued's store configurations for
// the spots and thresholds of res (cmd/queued newHistoryStore and
// newForecastLearner); dir "" keeps the forecast in memory.
func historyConfig(res *core.Result, dir string) history.Config {
	spots := make([]core.QueueSpot, len(res.Spots))
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
		ths[i] = res.Spots[i].Thresholds
	}
	return history.Config{Grid: res.Config.Grid, Spots: spots, Thresholds: ths, Amplify: res.Config.Amplify, Dir: dir}
}

func forecastConfig(res *core.Result) forecast.Config {
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		ths[i] = res.Spots[i].Thresholds
	}
	return forecast.Config{Grid: res.Config.Grid, Spots: len(res.Spots), Thresholds: ths}
}

// cpuSelf is this process's user+system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// batchRep is one timed pass of the pipeline; it leaves the day's history
// in dir.
func batchRep(eng *core.Engine, raw []mdt.Record, dir string) (*core.Result, error) {
	cleaned, _ := clean.Clean(raw, cleanCfg)
	res, err := eng.Analyze(cleaned)
	if err != nil {
		return nil, err
	}
	hist, err := history.Open(historyConfig(res, dir))
	if err != nil {
		return nil, err
	}
	if err := hist.BackfillResult(0, res); err != nil {
		hist.Close()
		return nil, err
	}
	if err := hist.Close(); err != nil {
		return nil, err
	}
	fc, err := forecast.Open(forecastConfig(res))
	if err != nil {
		return nil, err
	}
	if err := fc.ObserveResult(0, res); err != nil {
		return nil, err
	}
	return res, fc.Close()
}

func runBatchDay(r *run) error {
	path, err := ensureInput(r.o.out, r.o.workload, r.o.seed)
	if err != nil {
		return err
	}
	dir, err := r.runDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: read and decode the input, several times; the median counts.
	var raw []mdt.Record
	var setups []float64
	for i := 0; i < decodeReps; i++ {
		raw = nil
		runtime.GC()
		t := time.Now()
		if raw, err = readInput(path); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	// The timed pipeline, repeated for the measured seconds. After each
	// pass the day it stored is reopened and read, so every figure samples
	// the whole window rather than one stretch of it.
	eng, err := core.NewEngine(engineConfig(0))
	if err != nil {
		return err
	}
	var times, cpus, reopens, reads []float64
	var res *core.Result
	rng := rand.New(rand.NewSource(r.o.seed))
	deadline := time.Now().Add(time.Duration(r.o.seconds) * time.Second)
	for i := 0; i < minBatchRep || time.Now().Before(deadline); i++ {
		histDir := filepath.Join(dir, fmt.Sprintf("hist-%d", i))
		res = nil
		runtime.GC()
		c0, t0 := cpuSelf(), time.Now()
		res, err = batchRep(eng, raw, histDir)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSelf()-c0)
		r.ops("pipeline pass", 1, 0)
		// No collections while the stored day is read: they would be sized
		// by the raw day this process holds, which a server reading
		// history does not, and would slow the queries at random.
		gc := debug.SetGCPercent(-1)
		reopens, reads, err = readStoredDay(r, res, histDir, rng, reopens, reads)
		debug.SetGCPercent(gc)
		if err != nil {
			return err
		}
	}
	r.e2e["batch_s"] = median(times)
	r.e2e["cpu_s"] = median(cpus)
	r.e2e["ingest_rec_per_s"] = float64(len(raw)) / r.e2e["batch_s"]
	r.e2e["peak_rss_mb"] = selfHWM()
	r.e2e["restart_s"] = median(reopens)
	r.e2e["read_p50_ms"] = percentile(reads, 0.5)
	r.e2e["read_p90_ms"] = percentile(reads, 0.9)
	return checkBatch(r, raw, res, filepath.Join(dir, "hist-staged"))
}

// checkBatch checks that the stage-by-stage pass (traced in a --trace 1
// run) and a sequential Analyze reproduce the timed result exactly.
func checkBatch(r *run, raw []mdt.Record, res *core.Result, histDir string) error {
	runtime.GC()
	staged, err := stagedPipeline(r, raw, histDir)
	if err != nil {
		return err
	}
	sameResult(r, "stage-by-stage", res, staged)
	seq, err := core.NewEngine(engineConfig(1))
	if err != nil {
		return err
	}
	cleaned, _ := clean.Clean(raw, cleanCfg)
	seqRes, err := seq.Analyze(cleaned)
	if err != nil {
		return err
	}
	sameResult(r, "Parallelism 1", res, seqRes)
	r.check(len(res.Spots) > 0, "batch-day detected no spots")
	return nil
}

// sameResult checks got against the timed result: spot positions and every
// slot label, bit for bit.
func sameResult(r *run, what string, want, got *core.Result) {
	if !r.check(len(got.Spots) == len(want.Spots), "%s: %d spots, timed pass found %d", what, len(got.Spots), len(want.Spots)) {
		return
	}
	for i := range want.Spots {
		a, b := want.Spots[i], got.Spots[i]
		if !r.check(math.Float64bits(a.Spot.Pos.Lat) == math.Float64bits(b.Spot.Pos.Lat) &&
			math.Float64bits(a.Spot.Pos.Lon) == math.Float64bits(b.Spot.Pos.Lon) && a.Spot.Zone == b.Spot.Zone,
			"%s: spot %d at %v, timed pass has %v", what, i, b.Spot.Pos, a.Spot.Pos) {
			return
		}
		same := len(a.Labels) == len(b.Labels)
		for j := 0; same && j < len(a.Labels); j++ {
			same = a.Labels[j] == b.Labels[j]
		}
		if !r.check(same, "%s: spot %d labels differ from the timed pass", what, i) {
			return
		}
	}
}

// stagedPipeline runs the timed pipeline's stages by their public
// functions, in Analyze's order, with one span around each call. The stage
// spans plus batch.unattributed_s account for the traced wall time.
func stagedPipeline(r *run, raw []mdt.Record, histDir string) (*core.Result, error) {
	tr := r.tr
	t0 := time.Now()
	root := tr.begin("batch.traced", 0)

	id := tr.begin("clean.Clean", root)
	cleaned, st := clean.Clean(raw, cleanCfg)
	r.layers["clean.clean_s"] = tr.end(id)
	r.layers["clean.removed"] = float64(st.Removed())

	cfg := engineConfig(0)
	first := cleaned[0].Time
	cfg.Grid = core.DaySlots(time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC))
	cfg.Detector.Parallelism = cfg.Parallelism

	id = tr.begin("mdt.SplitByTaxi", root)
	byTaxi := mdt.SplitByTaxi(cleaned)
	r.layers["mdt.split_s"] = tr.end(id)

	id = tr.begin("core.ExtractAllParallel", root)
	pickups := core.ExtractAllParallel(byTaxi, cfg.SpeedThresholdKmh, cfg.Parallelism)
	r.layers["core.pea_s"] = tr.end(id)
	r.layers["core.pickups"] = float64(len(pickups))

	id = tr.begin("core.DetectSpots", root)
	spots, err := core.DetectSpots(pickups, cfg.Detector)
	r.layers["cluster.dbscan_s"] = tr.end(id)
	if err != nil {
		return nil, err
	}
	r.layers["core.spots"] = float64(len(spots))

	id = tr.begin("core.AssignPickups+ExtractWaits", root)
	assigned := core.AssignPickups(pickups, spots, cfg.AssignRadiusMeters)
	res := &core.Result{Config: cfg, Pickups: pickups, Spots: make([]core.SpotAnalysis, len(spots))}
	var streetByZone, totalByZone [citymap.NumZones]int
	waits := make([][]core.Wait, len(spots))
	for i := range spots {
		waits[i] = core.ExtractWaits(assigned[i])
		for _, w := range waits[i] {
			if w.Street() {
				streetByZone[spots[i].Zone]++
			}
			totalByZone[spots[i].Zone]++
		}
	}
	for z := range res.ZoneStreetRatio {
		res.ZoneStreetRatio[z] = 1
		if totalByZone[z] > 0 {
			res.ZoneStreetRatio[z] = float64(streetByZone[z]) / float64(totalByZone[z])
		}
	}
	r.layers["core.wte_s"] = tr.end(id)

	id = tr.begin("core.QCD", root)
	qcd := func(i int) {
		feats := core.ComputeFeatures(waits[i], cfg.Grid, cfg.Amplify)
		raw := feats
		if cfg.Amplify != core.NoAmplification {
			raw = core.ComputeFeatures(waits[i], cfg.Grid, core.NoAmplification)
		}
		th := core.SelectThresholds(raw, cfg.Grid, res.ZoneStreetRatio[spots[i].Zone])
		res.Spots[i] = core.SpotAnalysis{Spot: spots[i], Waits: waits[i], Features: feats, Thresholds: th, Labels: core.Classify(feats, th)}
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				qcd(i)
			}
		}()
	}
	for i := range spots {
		next <- i
	}
	close(next)
	wg.Wait()
	r.layers["core.qcd_s"] = tr.end(id)

	id = tr.begin("history.BackfillResult", root)
	hist, err := history.Open(historyConfig(res, histDir))
	if err != nil {
		return nil, err
	}
	if err := hist.BackfillResult(0, res); err != nil {
		hist.Close()
		return nil, err
	}
	r.layers["history.bytes"] = float64(hist.Stats().Bytes)
	if err := hist.Close(); err != nil {
		return nil, err
	}
	r.layers["history.backfill_s"] = tr.end(id)

	id = tr.begin("forecast.ObserveResult", root)
	fc, err := forecast.Open(forecastConfig(res))
	if err != nil {
		return nil, err
	}
	if err := fc.ObserveResult(0, res); err != nil {
		return nil, err
	}
	if err := fc.Close(); err != nil {
		return nil, err
	}
	r.layers["forecast.observe_s"] = tr.end(id)

	tr.end(root)
	wall := time.Since(t0).Seconds()
	r.layers["batch.traced_s"] = wall
	r.layers["batch.unattributed_s"] = tr.self(root)
	r.layers["batch.trace_overhead_s"] = wall - r.e2e["batch_s"]
	return res, nil
}

// readStoredDay measures what a restarted batch server pays for the stored
// day (restart_s: a lazy history reopen plus the forecast rebuild from it)
// and what its analytics readers see (read_p50_ms/read_p90_ms: in-process
// history and forecast queries over that day, timed one by one). It
// appends reopenReps reopen times and batchReads query latencies (ms).
func readStoredDay(r *run, res *core.Result, histDir string, rng *rand.Rand, reopens, reads []float64) ([]float64, []float64, error) {
	var hist *history.Store
	var fc *forecast.Learner
	for i := 0; i < reopenReps; i++ {
		if hist != nil {
			hist.Close()
			fc.Close()
		}
		var err error
		t := time.Now()
		if hist, err = history.Open(historyConfig(res, histDir)); err != nil {
			return nil, nil, err
		}
		if fc, err = forecast.Open(forecastConfig(res)); err != nil {
			hist.Close()
			return nil, nil, err
		}
		if err := fc.BackfillHistory(hist); err != nil {
			hist.Close()
			return nil, nil, err
		}
		reopens = append(reopens, time.Since(t).Seconds())
	}
	defer hist.Close()
	defer fc.Close()

	grid := res.Config.Grid
	dayEnd := grid.Start.Add(time.Duration(grid.Slots) * grid.SlotLen)
	tbl := fc.Table()
	queries := []func() bool{
		func() bool { return len(hist.Series(rng.Intn(len(res.Spots)), grid.Start, dayEnd)) == grid.Slots },
		func() bool { _, ok := hist.RangeSummary(grid.Start, dayEnd); return ok },
		func() bool {
			_, ok := hist.Heatmap(grid.Start.Add(time.Duration(rng.Intn(grid.Slots)) * grid.SlotLen))
			return ok
		},
		func() bool { hist.Transitions(rng.Intn(len(res.Spots))); return true },
		func() bool {
			_, ok := tbl.Forecast(rng.Intn(len(res.Spots)), grid.Start.Add(time.Duration(rng.Int63n(int64(dayEnd.Sub(grid.Start))))))
			return ok
		},
	}
	failed := 0
	for i := 0; i < batchReads; i++ {
		t := time.Now()
		ok := queries[i%len(queries)]()
		reads = append(reads, float64(time.Since(t))/1e6)
		if !ok {
			failed++
		}
	}
	r.ops("in-process history/forecast query", batchReads, failed)
	return reopens, reads, nil
}
