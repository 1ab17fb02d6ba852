package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/feedclient"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/history"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/stream"
)

// The live workloads drive a queued child process over loopback HTTP from
// this one process: one connection feeds /ingest, at most one reads.

const (
	coldStarts     = 3    // cold starts per live run; the median is setup_s
	feedBatch      = 500  // records per POST (mdtgen's default)
	readRate       = 1000 // reads per second of the open-loop reader
	postReadWindow = 2 * time.Second
	// mixedFeedRate is live-mixed's feed, records/s: about a tenth of what
	// live-ingest's unpaced feed sustains (two thirds of a normal day over
	// a 10 s window).
	mixedFeedRate = 40000
	// mixedFeedBatch keeps live-mixed's feed close to a continuous stream:
	// a POST every 2.5 ms rather than a burst every 12.5 ms.
	mixedFeedBatch = 100
)

// readEndpoints is the reader's mix, issued round-robin.
var readEndpoints = []string{"spots", "live_spots", "context", "estimate", "forecast", "recommend", "history", "heatmap", "transitions"}

// cacheEndpoints maps a reader endpoint to queued's render-cache label.
var cacheEndpoints = map[string]string{
	"spots": "live_spots", "live_spots": "live_spots_discovered", "context": "live_context", "estimate": "estimate",
}

// serverArgs starts queued as the live workloads run it: live ingest with
// live-spot discovery, a WAL and a history store, on its default city.
func serverArgs(dir string) []string {
	return []string{
		"-seed", strconv.Itoa(serverSeed), "-scale", strconv.FormatFloat(liveScale, 'f', -1, 64),
		"-live", "-live-spots", "-history", filepath.Join(dir, "hist"), "-wal", filepath.Join(dir, "wal"),
	}
}

// bootstrapResult repeats queued's start-up analysis in process: the spots
// and thresholds the server's live tier runs with.
func bootstrapResult() (*core.Result, error) {
	city := citymap.Generate(serverSeed, liveScale)
	out := sim.Run(sim.Config{Seed: serverSeed, City: city, InjectFaults: true})
	cleaned, _ := clean.Clean(out.Records, cleanCfg)
	eng, err := core.NewEngine(engineConfig(0))
	if err != nil {
		return nil, err
	}
	return eng.Analyze(cleaned)
}

func streamConfig(res *core.Result) stream.Config {
	hc := historyConfig(res, "")
	return stream.Config{Spots: hc.Spots, Thresholds: hc.Thresholds, Grid: res.Config.Grid, Amplify: res.Config.Amplify}
}

// liveRun is the state one live workload run shares across its phases.
type liveRun struct {
	*run
	dir  string
	recs []mdt.Record
	res  *core.Result // queued's bootstrap analysis, repeated in process
	srv  *server
}

// prepare loads the input, repeats queued's bootstrap analysis and starts
// queued coldStarts times, each over fresh directories; setup_s is the
// median time to the first healthy answer. The last server keeps running;
// the caller closes the returned run.
func prepareLive(r *run) (l *liveRun, err error) {
	path, err := ensureInput(r.o.out, r.o.workload, r.o.seed)
	if err != nil {
		return nil, err
	}
	l = &liveRun{run: r}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	if l.recs, err = readInput(path); err != nil {
		return nil, err
	}
	if l.res, err = bootstrapResult(); err != nil {
		return nil, err
	}
	r.env.ServerGOMAXPROCS = runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		r.env.ServerGOMAXPROCS = v
	}
	r.env.FeedConns, r.env.ReadConns = 1, 1
	var setups []float64
	for i := 0; i < coldStarts; i++ {
		if l.srv != nil {
			err := l.srv.stop()
			l.srv = nil
			if err != nil {
				return nil, err
			}
			os.RemoveAll(l.dir)
		}
		if l.dir, err = r.runDir(); err != nil {
			return nil, err
		}
		runtime.GC()
		var took time.Duration
		if l.srv, took, err = startServer(r.o.queued, serverArgs(l.dir), filepath.Join(l.dir, "queued.log")); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		r.tr.add("queued.start", 0, time.Now().Add(-took), time.Now())
	}
	r.e2e["setup_s"] = median(setups)
	// The bootstrap's own stage timers (queued's pipeline_stage_seconds).
	m, err := l.srv.metrics()
	if err != nil {
		return nil, err
	}
	for stage, name := range map[string]string{"pea": "core.pea_s", "dbscan": "cluster.dbscan_s", "wte": "core.wte_s", "qcd": "core.qcd_s"} {
		r.layers[name] = m.sum("pipeline_stage_seconds_sum", "stage", stage)
	}
	r.layers["core.spots"] = m.sum("pipeline_last_spots")
	r.check(int(m.sum("pipeline_last_spots")) == len(l.res.Spots),
		"queued bootstrapped %v spots, the in-process repeat %d", m.sum("pipeline_last_spots"), len(l.res.Spots))
	return l, nil
}

// close stops the server, if one runs, and removes the run's directories.
func (l *liveRun) close() {
	if l.srv != nil {
		l.srv.kill()
		l.srv.log.Close()
	}
	os.RemoveAll(l.dir)
}

// timedTransport records the latency of every /ingest POST; only the feed
// goroutine uses it.
type timedTransport struct {
	base http.RoundTripper
	ms   []float64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if req.URL.Path == "/ingest" {
		t.ms = append(t.ms, float64(time.Since(t0))/1e6)
	}
	return resp, err
}

// feed streams recs through feedclient on one connection (paced at rate
// records/s, or unpaced when 0) and then flushes; it returns the report
// and the time from the first POST until the flush returned.
func (l *liveRun) feed(recs []mdt.Record, batch int, rate float64, tt *timedTransport) (feedclient.Report, time.Duration, error) {
	cl, err := feedclient.New(feedclient.Config{
		URL: l.srv.url + "/ingest", BatchSize: batch, Rate: rate,
		HTTPClient: &http.Client{Transport: tt},
	})
	if err != nil {
		return feedclient.Report{}, 0, err
	}
	ctx := context.Background()
	t0 := time.Now()
	id := l.tr.begin("feedclient.Stream", 0)
	rep, err := cl.Stream(ctx, recs)
	l.tr.end(id)
	if err != nil {
		return rep, 0, err
	}
	id = l.tr.begin("feedclient.Flush", 0)
	err = cl.Flush(ctx)
	l.tr.end(id)
	return rep, time.Since(t0), err
}

func newTimedTransport() *timedTransport {
	return &timedTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// ingestLayers derives the write-path layer metrics from the scrapes and
// stats taken before and after a feed.
func (l *liveRun) ingestLayers(m0, m1 scrape, st0, st1 ingest.Stats, dd0, dd1 int64, rep feedclient.Report, tt *timedTransport) {
	L := l.layers
	L["ingest.decode_s"] = delta(m0, m1, "ingest_http_decode_seconds_sum")
	L["ingest.process_s"] = delta(m0, m1, "ingest_process_seconds_sum")
	L["ingest.queue_wait_mean_ms"] = 1e3 * delta(m0, m1, "ingest_queue_wait_seconds_sum") / delta(m0, m1, "ingest_queue_wait_seconds_count")
	L["ingest.batch_records_mean"] = delta(m0, m1, "ingest_batch_records_sum") / delta(m0, m1, "ingest_batch_records_count")
	L["ingest.accepted"] = float64(st1.Accepted - st0.Accepted)
	L["ingest.deduped"] = float64(dd1 - dd0)
	// ingest_rejected_total includes the dedup drops; report them apart so
	// the four outcomes are disjoint and add up to the records sent.
	L["ingest.rejected"] = float64(st1.Rejected-st0.Rejected) - L["ingest.deduped"]
	L["ingest.dropped"] = float64(st1.Dropped - st0.Dropped)
	L["feedclient.post_p50_ms"] = percentile(tt.ms, 0.5)
	L["feedclient.backpressure"] = float64(rep.Backpressure)
	L["store.wal_syncs"] = delta(m0, m1, "ingest_wal_syncs_total")
	L["store.wal_sync_s"] = delta(m0, m1, "ingest_wal_sync_seconds_sum")
	L["store.checkpoints"] = delta(m0, m1, "ingest_checkpoints_total")
	L["store.checkpoint_s"] = delta(m0, m1, "ingest_wal_checkpoint_seconds_sum")
	L["store.wal_bytes"] = float64(dirBytes(filepath.Join(l.dir, "wal")))
	L["ingest.snapshot_epochs"] = delta(m0, m1, "ingest_snapshot_epochs_total")
	L["queued.prewarm_renders"] = delta(m0, m1, "queued_cache_prewarm_total")
	L["history.appends"] = delta(m0, m1, "history_appends_total")
	L["forecast.appends"] = delta(m0, m1, "forecast_appends_total")
	L["core.live_spots_confirmed"] = delta(m0, m1, "spot_live_confirmed_total")
	L["ingest.serve_lag_p50_ms"] = 1e3 * histQuantile(m0, m1, "ingest_slot_serve_lag_seconds", 0.5)

	sent := int64(rep.Sent)
	outcomes := int64(L["ingest.accepted"] + L["ingest.rejected"] + L["ingest.deduped"] + L["ingest.dropped"])
	l.check(sent == int64(len(l.recs)), "feed sent %d of %d records", sent, len(l.recs))
	l.check(sent == outcomes, "records do not balance: sent %d, accepted+rejected+deduped+dropped %d", sent, outcomes)
	l.check(st1.BadRecords == st0.BadRecords, "%d wire records failed to decode", st1.BadRecords-st0.BadRecords)
	l.check(st1.FinalBelow == l.res.Config.Grid.Slots, "after the flush %d of %d slots are final", st1.FinalBelow, l.res.Config.Grid.Slots)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// snap scrapes /metrics and /ingest/stats together.
func (l *liveRun) snap() (scrape, ingest.Stats, int64, error) {
	m, err := l.srv.metrics()
	if err != nil {
		return nil, ingest.Stats{}, 0, err
	}
	st, dd, err := l.srv.ingestStats()
	return m, st, dd, err
}

// restart cycles the server reps times over the same WAL and history
// directories; restart_s is the median time from the exec to the first
// healthy answer.
func (l *liveRun) restart(reps int) error {
	var times []float64
	for i := 0; i < reps; i++ {
		if err := l.srv.stop(); err != nil {
			return err
		}
		l.srv = nil
		runtime.GC()
		srv, took, err := startServer(l.o.queued, serverArgs(l.dir), filepath.Join(l.dir, "queued.log"))
		if err != nil {
			return err
		}
		l.srv = srv
		times = append(times, took.Seconds())
		l.tr.add("queued.restart", 0, time.Now().Add(-took), time.Now())
	}
	l.e2e["restart_s"] = median(times)
	_, st, _, err := l.snap()
	if err != nil {
		return err
	}
	l.layers["ingest.replayed"] = float64(st.Replayed)
	l.check(st.Replayed > 0, "the restarted server replayed no WAL records")
	return nil
}

// reader builds the open-loop reader's requests over the server's spots
// and grid, drawn from a generator seeded by the workload seed.
type reader struct {
	srv    *server
	client *http.Client
	res    *core.Result
	rng    *rand.Rand
	tr     *tracer
	bodies int // answers that parsed
}

func (l *liveRun) newReader() *reader {
	return &reader{
		srv: l.srv, res: l.res, rng: rand.New(rand.NewSource(l.o.seed)), tr: l.tr,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

// path is the request for endpoint ep.
func (rd *reader) path(ep string) string {
	g := rd.res.Config.Grid
	day := g.Start.Add(time.Duration(g.Slots) * g.SlotLen)
	spot := strconv.Itoa(rd.rng.Intn(len(rd.res.Spots)))
	at := g.Start.Add(time.Duration(rd.rng.Int63n(int64(day.Sub(g.Start))))).Format(time.RFC3339)
	from, to := g.Start.Format(time.RFC3339), day.Format(time.RFC3339)
	isl := citymap.Island
	switch ep {
	case "spots":
		return "/spots"
	case "live_spots":
		return "/spots?live=1"
	case "context":
		return "/context"
	case "estimate":
		return "/estimate"
	case "forecast":
		return "/forecast?spot=" + spot + "&at=" + url.QueryEscape(at)
	case "recommend":
		lat := isl.MinLat + rd.rng.Float64()*(isl.MaxLat-isl.MinLat)
		lon := isl.MinLon + rd.rng.Float64()*(isl.MaxLon-isl.MinLon)
		return fmt.Sprintf("/recommend?for=driver&lat=%.5f&lon=%.5f", lat, lon)
	case "history":
		return "/history?spot=" + spot + "&from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	case "heatmap":
		return "/heatmap?from=" + url.QueryEscape(from) + "&to=" + url.QueryEscape(to)
	case "transitions":
		return "/transitions?spot=" + spot
	}
	panic("unknown endpoint " + ep)
}

// call performs read i: a GET that must answer 200 with a body that
// parses as JSON.
func (rd *reader) call(i int) (int, bool) {
	op := i % len(readEndpoints)
	path := rd.path(readEndpoints[op])
	id := rd.tr.begin("GET "+readEndpoints[op], 0)
	defer rd.tr.end(id)
	resp, err := rd.client.Get(rd.srv.url + path)
	if err != nil {
		return op, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(body) {
		return op, false
	}
	rd.bodies++
	return op, true
}

// readLayers turns an open-loop run and the scrapes around it into the
// read-path metrics, and counts every GET as an operation.
func (l *liveRun) readLayers(lr loadResult, m0, m1 scrape) {
	L := l.layers
	clean := lr.clean()
	l.e2e["read_p50_ms"] = clean.windowed(0.5, time.Second)
	l.e2e["read_p90_ms"] = clean.windowed(0.9, time.Second)
	L["queued.read_p99_ms"] = percentile(clean.latenciesMs(-1), 0.99)
	L["loadgen.stolen_share"] = lr.stolenShare()
	failed := 0
	for op, ep := range readEndpoints {
		lat := clean.latenciesMs(op)
		errs := 0
		for _, s := range lr.samples {
			if s.op == op && s.failed {
				errs++
			}
		}
		failed += errs
		L["queued."+ep+".p50_ms"] = percentile(lat, 0.5)
		L["queued."+ep+".p99_ms"] = percentile(lat, 0.99)
		L["queued."+ep+".count"] = float64(len(lr.latenciesMs(op)))
		L["queued."+ep+".errors"] = float64(errs)
		if label, ok := cacheEndpoints[ep]; ok {
			hits := delta(m0, m1, "queued_cache_hits_total", "endpoint", label)
			L["queued.cache_hit_ratio."+ep] = hits / (hits + delta(m0, m1, "queued_cache_misses_total", "endpoint", label))
		}
	}
	l.ops("GET answered non-200 or unparsable", len(lr.samples), failed)
	L["history.query_s"] = delta(m0, m1, "history_query_seconds_sum")
	sh := delta(m0, m1, "history_summary_hits_total")
	L["history.summary_hit_ratio"] = sh / (sh + delta(m0, m1, "history_summary_misses_total"))
	L["history.block_cache_hits"] = delta(m0, m1, "history_block_cache_hits_total")
	L["forecast.query_s"] = delta(m0, m1, "forecast_query_seconds_sum")
	L["loadgen.late_p99_ms"] = percentile(lr.lateMs(), 0.99)
	L["loadgen.inflight_mean"] = lr.inflight
	L["loadgen.little_err"] = lr.little()
	l.check(lr.little() <= littleTolerance, "reader in-flight mean %.3f breaks Little's Law by %.0f%%", lr.inflight, 100*lr.little())
}

// readAfterRestart runs a short open-loop read phase on the restarted
// server (live-ingest's reads: a cold render cache over replayed state).
func (l *liveRun) readAfterRestart() error {
	m0, err := l.srv.metrics()
	if err != nil {
		return err
	}
	rd := l.newReader()
	lr := openLoop(readRate, postReadWindow, rd.call, hostSteal)
	m1, err := l.srv.metrics()
	if err != nil {
		return err
	}
	l.readLayers(lr, m0, m1)
	return nil
}

// referenceService feeds recs, in the feed's batches, through an
// in-process ingest.Service with the server's stream configuration, one
// shard and no WAL, then flushes it.
func (l *liveRun) referenceService() (*ingest.Service, error) {
	svc, err := ingest.NewService(ingest.Config{Stream: streamConfig(l.res), Clean: cleanCfg, Shards: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(l.recs); i += feedBatch {
		batch := l.recs[i:min(i+feedBatch, len(l.recs))]
		for len(batch) > 0 {
			n, err := svc.Accept(batch)
			batch = batch[n:]
			if err != nil && !errors.Is(err, ingest.ErrBackpressure) {
				svc.Close()
				return nil, err
			}
		}
	}
	if err := svc.Flush(); err != nil {
		svc.Close()
		return nil, err
	}
	return svc, nil
}

// contextJSON is one spot of queued's /context answer.
type contextJSON struct {
	Spot    int     `json:"spot"`
	Context string  `json:"context"`
	Final   bool    `json:"final"`
	TWaitS  float64 `json:"t_wait_s"`
	NArr    float64 `json:"n_arr"`
	QLen    float64 `json:"q_len"`
	TDepS   float64 `json:"t_dep_s"`
	NDep    float64 `json:"n_dep"`
}

// checkContexts compares the served /context of every slot the server
// reports final with the reference service; at least wantFinal slots must
// be final.
func (l *liveRun) checkContexts(ref *ingest.Service, what string, wantFinal int) {
	g := l.res.Config.Grid
	final := 0
	for slot := 0; slot < g.Slots; slot++ {
		at := g.Start.Add(time.Duration(slot)*g.SlotLen + g.SlotLen/2).Format(time.RFC3339)
		body, err := l.srv.get("/context?at=" + url.QueryEscape(at))
		var got []contextJSON
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		if !l.check(err == nil && len(got) == len(l.res.Spots), "%s: /context slot %d: %v (%d spots)", what, slot, err, len(got)) {
			continue
		}
		slotFinal := true
		for spot, c := range got {
			if !c.Final {
				slotFinal = false
				continue
			}
			f, label, ok := ref.Snapshot().Context(spot, slot)
			want := contextJSON{Spot: spot, Context: label.String(), Final: ok,
				TWaitS: f.TWait.Seconds(), NArr: f.NArr, QLen: f.QLen, TDepS: f.TDep.Seconds(), NDep: f.NDep}
			if !l.check(sameContext(c, want), "%s: slot %d spot %d served %+v, in-process %+v", what, slot, spot, c, want) {
				break
			}
		}
		if slotFinal {
			final++
		}
	}
	l.check(final >= wantFinal, "%s: %d slots final, want %d", what, final, wantFinal)
}

func sameContext(a, b contextJSON) bool {
	bits := math.Float64bits
	return a.Spot == b.Spot && a.Context == b.Context && a.Final == b.Final &&
		bits(a.TWaitS) == bits(b.TWaitS) && bits(a.NArr) == bits(b.NArr) && bits(a.QLen) == bits(b.QLen) &&
		bits(a.TDepS) == bits(b.TDepS) && bits(a.NDep) == bits(b.NDep)
}

// serverCPU brackets the server's CPU time; NaN when /proc is unreadable.
func (l *liveRun) serverCPU() float64 {
	c, err := l.srv.cpu()
	if err != nil {
		return math.NaN()
	}
	return c
}

func runLiveIngest(r *run) error {
	l, err := prepareLive(r)
	if err != nil {
		return err
	}
	defer l.close()

	m0, st0, dd0, err := l.snap()
	if err != nil {
		return err
	}
	runtime.GC()
	tt := newTimedTransport()
	c0 := l.serverCPU()
	gc := debug.SetGCPercent(-1)
	rep, took, err := l.feed(l.recs, feedBatch, 0, tt)
	debug.SetGCPercent(gc)
	c1 := l.serverCPU()
	if err != nil {
		return err
	}
	r.e2e["batch_s"] = took.Seconds()
	r.e2e["ingest_rec_per_s"] = float64(rep.Sent) / took.Seconds()
	r.e2e["cpu_s"] = c1 - c0
	r.e2e["peak_rss_mb"] = l.srv.hwm()
	r.ops("POST /ingest", len(tt.ms), 0)
	m1, st1, dd1, err := l.snap()
	if err != nil {
		return err
	}
	l.ingestLayers(m0, m1, st0, st1, dd0, dd1, rep, tt)

	ref, err := l.referenceService()
	if err != nil {
		return err
	}
	defer ref.Close()
	slots := l.res.Config.Grid.Slots
	l.checkContexts(ref, "after flush", slots)

	// Each restart replays the whole surge day, so two are enough.
	if err := l.restart(2); err != nil {
		return err
	}
	if err := l.readAfterRestart(); err != nil {
		return err
	}
	l.checkContexts(ref, "after restart", 1)
	if err := l.srv.stop(); err != nil {
		return err
	}
	l.srv = nil
	if r.o.trace {
		return l.restartPhases()
	}
	return nil
}

// restartPhases times queued's restart steps in process, in its order,
// over a copy of the directories the run left: the lazy history open, the
// forecast rebuild from history, and ingest.NewService's WAL replay.
func (l *liveRun) restartPhases() error {
	cp := filepath.Join(l.dir, "copy")
	if err := copyDir(cp, l.dir); err != nil {
		return err
	}
	tr := l.tr
	root := tr.begin("restart.in_process", 0)
	id := tr.begin("history.Open", root)
	hist, err := history.Open(historyConfig(l.res, filepath.Join(cp, "hist")))
	l.layers["restart.history_open_s"] = tr.end(id)
	if err != nil {
		return err
	}
	defer hist.Close()
	id = tr.begin("forecast.BackfillHistory", root)
	fc, err := forecast.Open(forecastConfig(l.res))
	if err == nil {
		err = fc.BackfillHistory(hist)
	}
	l.layers["restart.forecast_backfill_s"] = tr.end(id)
	if err != nil {
		return err
	}
	defer fc.Close()
	id = tr.begin("ingest.NewService", root)
	svc, err := ingest.NewService(ingest.Config{
		Stream: streamConfig(l.res), Clean: cleanCfg, WALDir: filepath.Join(cp, "wal"),
		History:   ingest.TeeHistory(fc, hist),
		LiveSpots: ingest.LiveSpotsConfig{Enabled: true, Detector: core.DefaultLiveDetectorConfig()},
	})
	l.layers["restart.wal_replay_s"] = tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	l.check(svc.Stats().Replayed == int64(l.layers["ingest.replayed"]),
		"in-process replay read %d records, the restarted server %v", svc.Stats().Replayed, l.layers["ingest.replayed"])
	return svc.Close()
}

func runLiveMixed(r *run) error {
	l, err := prepareLive(r)
	if err != nil {
		return err
	}
	defer l.close()
	// The day's records that fit the measured window at the feed rate.
	l.recs = l.recs[:min(len(l.recs), mixedFeedRate*r.o.seconds)]

	m0, st0, dd0, err := l.snap()
	if err != nil {
		return err
	}
	// A fixed-rate feed for the measured window: a light, steady write load
	// that closes a slot every window/48 or so.
	window := time.Duration(r.o.seconds) * time.Second
	rate := float64(mixedFeedRate)
	rd := l.newReader()
	tt := newTimedTransport()
	type fed struct {
		rep  feedclient.Report
		took time.Duration
		err  error
	}
	done := make(chan fed, 1)
	runtime.GC()
	// No collections in the driver while it measures: its garbage is a few
	// hundred megabytes at most, and a collection would compete with the
	// server for the two CPUs.
	gc := debug.SetGCPercent(-1)
	c0 := l.serverCPU()
	go func() {
		rep, took, err := l.feed(l.recs, mixedFeedBatch, rate, tt)
		done <- fed{rep, took, err}
	}()
	lr := openLoop(readRate, window, rd.call, hostSteal)
	f := <-done
	debug.SetGCPercent(gc)
	c1 := l.serverCPU()
	if f.err != nil {
		return f.err
	}
	r.e2e["batch_s"] = f.took.Seconds()
	r.e2e["ingest_rec_per_s"] = float64(f.rep.Sent) / f.took.Seconds()
	r.e2e["cpu_s"] = c1 - c0
	r.e2e["peak_rss_mb"] = l.srv.hwm()
	r.ops("POST /ingest", len(tt.ms), 0)
	m1, st1, dd1, err := l.snap()
	if err != nil {
		return err
	}
	l.ingestLayers(m0, m1, st0, st1, dd0, dd1, f.rep, tt)
	l.readLayers(lr, m0, m1)

	ref, err := l.referenceService()
	if err != nil {
		return err
	}
	defer ref.Close()
	l.checkContexts(ref, "after flush", l.res.Config.Grid.Slots)
	if err := l.restart(3); err != nil {
		return err
	}
	l.checkContexts(ref, "after restart", 1)
	return nil
}

// copyDir copies the regular files under src (skipping dst itself) to dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if path == dst {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}
