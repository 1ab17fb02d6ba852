// Command queued is the deployment-style backend of §7.1: it periodically
// recomputes queue spots and contexts from fresh (simulated) MDT data and
// serves them over a JSON API, alongside the vehicle-monitor endpoints.
//
//	GET /                       web frontend (canvas map of spots + contexts)
//	GET /spots                  all detected queue spots with current context
//	GET /spots?at=RFC3339       contexts at a specific time
//	GET /spots?live=1           live mode with -live-spots: also the spots
//	                            discovered online (lifecycle "state" field)
//	GET /context[?at=..]        per-spot context + §5.2 features for one slot
//	GET /recommend?for=driver&lat=..&lon=..[&at=..]  ranked queue spots (§9),
//	                            ETA-aware: scored by expected state at arrival
//	GET /forecast?spot=N[&at=RFC3339]  expected label/queue length/wait at a
//	                            (future) instant, from learned slot profiles
//	GET /monitors ...           the vehicle monitor service (see internal/monitor)
//	GET /metrics                Prometheus text metrics (ingest + serve caches)
//	GET /healthz                readiness: batch loaded, shards alive, WAL writable
//	GET /debug/pprof/*          runtime profiling, when started with -pprof
//
// With -history DIR the columnar slot-context store (internal/history)
// records every finalized cell — appended live on each watermark advance,
// or backfilled from the batch pass — and three analytics endpoints serve
// its lock-free index:
//
//	GET /history?spot=N[&from=..&to=..]  decoded per-slot context series
//	GET /heatmap[?t=RFC3339]             tiled city intensity at one recorded slot
//	GET /heatmap?from=..&to=..           city-wide aggregate over a range, served
//	                                     from block summaries without decoding
//	GET /transitions?spot=N              day-over-day label transition matrix
//
// The read path is lock-free: the batch analysis and the live ingest
// aggregator each publish an immutable view behind an atomic pointer, and
// the hot endpoints serve pre-encoded bodies from a per-epoch cache (see
// cache.go) — a request costs one pointer load and one cache lookup, and
// invalidation is pointer identity, never a timer. In live mode a
// pre-warmer (prewarm.go) re-renders the hot bodies on every watermark
// advance and just before each slot rollover, so the first request after
// an epoch change is already a cache hit.
//
// With -live the batch run only bootstraps the spot positions and
// thresholds; contexts are then served from records POSTed to /ingest
// (see internal/ingest):
//
//	POST /ingest                JSON-lines or binary MDT record batches
//	POST /ingest/flush          finalize every slot (end of feed)
//	GET  /ingest/stats          per-shard accepted/rejected/dropped/lag
//	GET  /estimate              provisional contexts for the still-open slot
//
// Usage:
//
//	queued -addr :8080 -scale 0.25 -refresh 0   # refresh 0 = analyze once
//	queued -addr :8080 -live -shards 4 -wal /tmp/tq-wal
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/history"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/recommend"
)

// spotJSON is the wire format for one detected spot. The last two fields
// only appear on live-discovered spots (/spots?live=1): batch spots omit
// them, so the plain /spots body is byte-identical with or without live
// discovery running.
type spotJSON struct {
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Zone     string  `json:"zone"`
	Pickups  int     `json:"pickups"` // live spots: current window support
	Context  string  `json:"context"`
	Landmark string  `json:"landmark,omitempty"`
	State    string  `json:"state,omitempty"` // lifecycle: emerging|confirmed|decaying
	Live     bool    `json:"live,omitempty"`  // true for online-discovered spots
}

// handleSpots serves the batch-mode /spots from the per-epoch cache: the
// body for each slot is encoded once per published view and then served as
// immutable bytes.
func (s *server) handleSpots(w http.ResponseWriter, r *http.Request) {
	v, bucket, ok := s.loadView(w, r)
	if !ok {
		return
	}
	body := s.spotsCache.get(v, bucket, v.buckets(), func() []byte {
		return v.renderSpots(bucket, func(spot, slot int) core.QueueType {
			if labels := v.result.Spots[spot].Labels; slot < len(labels) {
				return labels[slot]
			}
			return core.Unidentified
		})
	})
	writeJSON(w, body)
}

// handleContext serves the per-spot contexts and features of one slot,
// cached per (view, slot).
func (s *server) handleContext(w http.ResponseWriter, r *http.Request) {
	v, bucket, ok := s.loadView(w, r)
	if !ok {
		return
	}
	body := s.contextCache.get(v, bucket, v.buckets(), func() []byte {
		return v.renderContext(bucket)
	})
	writeJSON(w, body)
}

// parseCoord parses one coordinate query parameter, rejecting anything a
// distance can't be computed from: strconv syntax errors, NaN/Inf (which
// fmt.Sscan used to accept — NaN > MaxDistance is false, so the radius
// filter passed every spot and NaN scores made the sort comparator
// non-transitive) and out-of-range degrees.
func parseCoord(s string, limit float64) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < -limit || v > limit {
		return 0, false
	}
	return v, true
}

// recommendAt resolves the default evaluation instant: the live feed's
// newest final slot when one is wired in (defaultAt), else the historical
// noon-of-batch-day fallback.
func (s *server) recommendAt(v *batchView) time.Time {
	if s.defaultAt != nil {
		if t, ok := s.defaultAt(); ok {
			return t
		}
	}
	return v.grid.Start.Add(12 * time.Hour)
}

// handleRecommend serves the §9 recommendation feed for drivers (passenger
// queues) and commuters (taxi queues), ranked by the expected state at
// arrival: travel-time ETA from distance, forecast evaluated at at+ETA.
// The ranking depends on the caller's position, so the body is not
// cacheable — but the handler is still lock-free: it reads one published
// view and one published profile table.
func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	if v == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	var aud recommend.Audience
	switch q.Get("for") {
	case "driver":
		aud = recommend.ForDriver
	case "commuter":
		aud = recommend.ForCommuter
	default:
		http.Error(w, "need for=driver|commuter", http.StatusBadRequest)
		return
	}
	lat, ok := parseCoord(q.Get("lat"), 90)
	if !ok {
		http.Error(w, "bad lat", http.StatusBadRequest)
		return
	}
	lon, ok := parseCoord(q.Get("lon"), 180)
	if !ok {
		http.Error(w, "bad lon", http.StatusBadRequest)
		return
	}
	at := s.recommendAt(v)
	if qs := q.Get("at"); qs != "" {
		t, err := time.Parse(time.RFC3339, qs)
		if err != nil {
			http.Error(w, "bad 'at'", http.StatusBadRequest)
			return
		}
		at = t
	}
	var opts recommend.Options
	if s.fc != nil {
		tbl := s.fc.Table() // one load: every spot ranks against the same table
		opts.Forecast = func(spot int, when time.Time) (core.QueueType, float64, time.Duration, bool) {
			f, ok := tbl.Forecast(spot, when)
			if !ok || f.Source == forecast.SourceNone {
				return core.Unidentified, 0, 0, false
			}
			return f.Label, f.QLen, f.Wait, true
		}
	}
	recs := recommend.Recommend(v.result, aud, geo.Point{Lat: lat, Lon: lon}, at, opts)
	type recJSON struct {
		Lat        float64 `json:"lat"`
		Lon        float64 `json:"lon"`
		Context    string  `json:"context"`
		Distance   float64 `json:"distance_m"`
		Score      float64 `json:"score"`
		ETAS       float64 `json:"eta_s"`
		ExpWaitS   float64 `json:"expected_wait_s"`
		Forecasted bool    `json:"forecasted"`
	}
	out := make([]recJSON, 0, len(recs))
	for _, rec := range recs {
		out = append(out, recJSON{
			Lat: rec.Spot.Pos.Lat, Lon: rec.Spot.Pos.Lon,
			Context: rec.Context.String(), Distance: rec.Distance, Score: rec.Score,
			ETAS: rec.ETA.Seconds(), ExpWaitS: rec.ExpectedWait.Seconds(),
			Forecasted: rec.Forecasted,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("encode: %v", err)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.25, "city scale")
	minPts := flag.Int("minpts", 50, "DBSCAN min-points")
	refresh := flag.Duration("refresh", 0, "recompute interval (0 = once at startup)")
	live := flag.Bool("live", false, "serve contexts from the live /ingest feed (batch run only bootstraps spots)")
	shards := flag.Int("shards", 4, "live mode: ingest shard count")
	queueDepth := flag.Int("queue", 1024, "live mode: per-shard queue depth")
	bp := flag.String("bp", "block", "live mode: backpressure policy, block|drop-oldest")
	liveSpots := flag.Bool("live-spots", false, "live mode: discover new queue spots online from pickups outside the batch list (serves /spots?live=1)")
	liveSpotWindow := flag.Duration("live-spot-window", 3*time.Hour, "live spot discovery: sliding pickup window")
	liveSpotMinPts := flag.Int("live-spot-minpts", 0, "live spot discovery: DBSCAN min-points over the window (0 = paper default 50)")
	walDir := flag.String("wal", "", "live mode: WAL directory (empty = durability off)")
	syncEvery := flag.Int("sync-every", 0, "live mode: WAL group-commit batch in records, the crash-loss window (0 = default)")
	segmentBytes := flag.Int64("segment-bytes", 0, "live mode: WAL segment seal size in bytes (0 = default 4MiB)")
	histDir := flag.String("history", "", "directory for the columnar slot-context history store (enables /history, /heatmap, /transitions)")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
	flag.Parse()

	// Installed first, so a signal during the start-up analysis or WAL
	// replay is held until serving starts and then shuts down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	srv := newServer(obs.Default)
	log.Printf("queued: analyzing initial day (scale %.2f)...", *scale)
	if err := srv.recompute(*seed, *scale, *minPts); err != nil {
		log.Fatal(err)
	}
	log.Printf("queued: %d queue spots ready", len(srv.result().Spots))

	var hist *history.Store
	if *histDir != "" {
		var err error
		hist, err = newHistoryStore(*histDir, srv.result(), obs.Default)
		if err != nil {
			log.Fatal(err)
		}
		st := hist.Stats()
		log.Printf("queued: history store at %s (%d blocks, %d records recovered)",
			*histDir, st.Blocks, st.Records)
	}

	// The forecast learner always runs: /forecast and the ETA-aware
	// /recommend ranking work in every mode. Its profiles are a pure
	// function of the history, rebuilt here on every start.
	fc, err := newForecastLearner(srv.result(), obs.Default)
	if err != nil {
		log.Fatal(err)
	}
	srv.fc = fc
	if hist != nil {
		if err := fc.BackfillHistory(hist); err != nil {
			log.Printf("queued: forecast backfill: %v", err)
		}
	}
	if st := fc.Stats(); st.WeightFloor > 0 {
		log.Printf("queued: forecast profiles ready (total weight ~%d)", st.WeightFloor)
	}

	var liveSrv *liveServer
	if *live {
		policy := ingest.Block
		switch *bp {
		case "block":
		case "drop-oldest":
			policy = ingest.DropOldest
		default:
			log.Fatalf("queued: unknown -bp %q (want block or drop-oldest)", *bp)
		}
		if *refresh > 0 {
			log.Printf("queued: -refresh is ignored in live mode (spots are fixed at startup)")
			*refresh = 0
		}
		cfg := ingest.Config{
			Stream:       liveStreamConfig(srv.result()),
			Clean:        clean.Config{ValidFrame: citymap.Island},
			Shards:       *shards,
			QueueDepth:   *queueDepth,
			Policy:       policy,
			WALDir:       *walDir,
			SyncEvery:    *syncEvery,
			SegmentBytes: *segmentBytes,
			Metrics:      obs.Default, // one process-wide /metrics scrape
		}
		if *liveSpots {
			det := core.DefaultLiveDetectorConfig()
			det.Window = *liveSpotWindow
			if *liveSpotMinPts > 0 {
				det.Cluster.MinPoints = *liveSpotMinPts
			}
			cfg.LiveSpots = ingest.LiveSpotsConfig{Enabled: true, Detector: det}
			log.Printf("queued: live spot discovery on (window %s, minpts %d)",
				det.Window, det.Cluster.MinPoints)
		}
		// Every watermark advance records the newly-final contexts into
		// the history store (when enabled) AND folds them into the
		// forecast profiles; the live feed replays one day, recorded as
		// day 0. The pre-warmer rides the same tee — last, so the
		// profiles and history it renders against are already updated —
		// and re-renders the hot cache bodies before the first reader
		// asks (see prewarm.go).
		pw := newPrewarmer(fc, obs.Default)
		sinks := []ingest.HistoryAppender{fc}
		if hist != nil {
			sinks = append(sinks, hist)
		}
		sinks = append(sinks, pw)
		cfg.History = ingest.TeeHistory(sinks...)
		svc, err := ingest.NewService(cfg)
		if err != nil {
			log.Fatal(err)
		}
		liveSrv = newLiveServer(srv, svc, obs.Default)
		pw.attach(liveSrv)
		// Live /recommend defaults `at` to the newest final slot — what
		// the feed says now — never the batch day's noon.
		grid := srv.result().Config.Grid
		srv.defaultAt = func() (time.Time, bool) {
			if hist != nil {
				if day, slot, ok := hist.Latest(); ok {
					return hist.TimeOf(day, slot), true
				}
			}
			if snap := svc.Snapshot(); snap != nil && snap.FinalBelow > 0 {
				return grid.Start.Add(time.Duration(snap.FinalBelow-1) * grid.SlotLen), true
			}
			return time.Time{}, false
		}
		go pw.run()
		log.Printf("queued: live ingest on /ingest (%d shards, %s)", *shards, policy)
	}

	if liveSrv == nil {
		// Batch mode: the analysis pass is the history and profile source.
		// Day 0 is the initial run; each -refresh lap backfills the next
		// day index.
		if hist != nil {
			if err := hist.BackfillResult(0, srv.result()); err != nil {
				log.Printf("queued: history backfill: %v", err)
			}
		}
		if err := fc.ObserveResult(0, srv.result()); err != nil {
			log.Printf("queued: forecast observe: %v", err)
		}
	}

	if *refresh > 0 {
		go func() {
			for i := int64(1); ; i++ {
				time.Sleep(*refresh)
				if err := srv.recompute(*seed+i, *scale, *minPts); err != nil {
					log.Printf("recompute: %v", err)
					continue
				}
				log.Printf("queued: refreshed (%d spots)", len(srv.result().Spots))
				if hist != nil {
					// Only a run that found the same spot set can extend the
					// store; a different detection outcome is logged and
					// skipped (the store's grid/spot identity is fixed).
					if err := hist.BackfillResult(int(i), srv.result()); err != nil {
						log.Printf("queued: history backfill day %d: %v", i, err)
					}
				}
				if err := fc.ObserveResult(int(i), srv.result()); err != nil {
					log.Printf("queued: forecast observe day %d: %v", i, err)
				}
			}
		}()
	}

	// Vehicle monitor endpoints over the busiest spots.
	monSvc := monitor.NewService()
	for i, sa := range srv.result().Spots {
		if i >= 5 {
			break
		}
		sp := sa.Spot
		name := sp.Zone.String() + "-" + sp.Pos.String()
		monSvc.Add(monitor.NewAreaCounter(name, geo.CirclePolygon(sp.Pos, 40, 12)))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	if liveSrv != nil {
		registerLive(mux, liveSrv)
	} else {
		mux.HandleFunc("/spots", srv.handleSpots)
		mux.HandleFunc("/context", srv.handleContext)
	}
	if hist != nil {
		registerHistory(mux, &historyServer{hist: hist})
	}
	registerForecast(mux, &forecastServer{fc: fc})
	mux.HandleFunc("/recommend", srv.handleRecommend)
	mux.Handle("/monitors", monSvc)
	mux.Handle("/monitors/", monSvc)
	var liveSvc *ingest.Service
	if liveSrv != nil {
		liveSvc = liveSrv.svc
	}
	registerOps(mux, srv, liveSvc, obs.Default, *withPprof)

	// Shutdown order: stop taking requests, drain the ingest shards (their
	// final watermark advance appends to the history), then close the
	// history store.
	var closers []func() error
	if liveSvc != nil {
		closers = append(closers, liveSvc.Close)
	}
	if hist != nil {
		closers = append(closers, hist.Close)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("queued: listening on %s", ln.Addr())
	if err := serveUntilSignal(newHTTPServer(mux), ln, sig, closers...); err != nil {
		log.Fatal(err)
	}
}

// HTTP server limits. ReadTimeout and WriteTimeout stay unset on purpose:
// a backpressured /ingest POST may wait up to the ingest BlockTimeout
// before it is answered, and /ingest/flush can run for seconds, so a
// whole-request deadline would cut legitimate requests. The header
// deadline still cuts off a client that trickles its request header.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	// shutdownTimeout bounds how long in-flight requests may drain.
	shutdownTimeout = 10 * time.Second
)

// newHTTPServer wraps h with the server limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// serveUntilSignal serves hs on ln until a signal arrives on sig, then
// shuts down: the HTTP server first (in-flight requests drain, bounded by
// shutdownTimeout), then each closer in order. A signal-driven shutdown
// returns nil even when a closer fails (the failure is logged), so the
// process exits 0; only a serve failure is returned.
func serveUntilSignal(hs *http.Server, ln net.Listener, sig <-chan os.Signal, closers ...func() error) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case s := <-sig:
		log.Printf("queued: %v: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("queued: http shutdown: %v", err)
	}
	for _, c := range closers {
		if err := c(); err != nil {
			log.Printf("queued: close: %v", err)
		}
	}
	return nil
}
