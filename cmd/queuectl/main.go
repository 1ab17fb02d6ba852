// Command queuectl runs the two-tier queue analytic engine over an MDT log
// dataset (text, or a binary segment file with -format store) and prints
// the detected queue spots with their per-slot queue contexts. Datasets
// spanning several days are analyzed day by day; the multi-day spot
// registry (§7.1) and queue-type transition report are printed in
// addition.
//
// Usage:
//
//	mdtgen -o day.log && queuectl -i day.log
//	queuectl -i day.tqs -format store -eps 15 -minpts 50 -top 10
//	mdtgen -duration 72h -o week.log && queuectl -i week.log
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/report"
	"taxiqueue/internal/store"
	"taxiqueue/internal/transition"
)

func main() {
	in := flag.String("i", "-", "input file ('-' for stdin)")
	format := flag.String("format", "text", "input format: text or store")
	eps := flag.Float64("eps", 15, "DBSCAN eps in meters")
	minPts := flag.Int("minpts", 50, "DBSCAN min-points")
	speedTh := flag.Float64("speed", 10, "PEA speed threshold (km/h)")
	coverage := flag.Float64("coverage", 0.6, "fleet coverage of the dataset (sets the §6.2.1 amplification)")
	top := flag.Int("top", 20, "print the N busiest spots (0 = all)")
	geojsonOut := flag.String("geojson", "", "also write the detected spots as GeoJSON to this file")
	flag.Parse()

	recs, err := readRecords(*in, *format)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "queuectl: %d records read\n", len(recs))

	cleaned, stats := clean.Clean(recs, clean.Config{ValidFrame: citymap.Island})
	fmt.Fprintf(os.Stderr, "queuectl: %s\n", stats)

	days := splitByDay(cleaned)
	fmt.Fprintf(os.Stderr, "queuectl: dataset spans %d day(s)\n", len(days))

	cfg := core.DefaultEngineConfig()
	cfg.SpeedThresholdKmh = *speedTh
	cfg.Detector.Cluster = cluster.Params{EpsMeters: *eps, MinPoints: *minPts}
	if *coverage > 0 && *coverage < 1 {
		cfg.Amplify = core.Amplification{Factor: 1 / *coverage, IntervalFactor: *coverage}
	} else {
		cfg.Amplify = core.NoAmplification
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Analyze each day; the last day's result drives the spot table, the
	// full set feeds the registry and transition report.
	var results []*core.Result
	for _, dayRecs := range days {
		r, err := engine.Analyze(dayRecs)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
	}
	res := results[len(results)-1]
	fmt.Fprintf(os.Stderr, "queuectl: %d pickup events, %d queue spots (last day)\n",
		len(res.Pickups), len(res.Spots))

	if *geojsonOut != "" {
		if err := writeGeoJSON(*geojsonOut, res); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "queuectl: GeoJSON written to %s\n", *geojsonOut)
	}

	n := len(res.Spots)
	if *top > 0 && *top < n {
		n = *top
	}
	t := report.NewTable(fmt.Sprintf("Detected queue spots (top %d by pickups)", n),
		"#", "Location", "Zone", "Pickups", "C1", "C2", "C3", "C4", "Unid")
	for i := 0; i < n; i++ {
		sa := res.Spots[i]
		counts := map[core.QueueType]int{}
		for _, l := range sa.Labels {
			counts[l]++
		}
		t.AddRow(fmt.Sprint(i+1), sa.Spot.Pos.String(), sa.Spot.Zone.String(),
			fmt.Sprint(sa.Spot.PickupCount),
			fmt.Sprint(counts[core.C1]), fmt.Sprint(counts[core.C2]),
			fmt.Sprint(counts[core.C3]), fmt.Sprint(counts[core.C4]),
			fmt.Sprint(counts[core.Unidentified]))
	}
	fmt.Print(t)

	if n > 0 {
		sa := res.Spots[0]
		fmt.Printf("\nBusiest spot timeline (%v, %v):\n", sa.Spot.Pos, sa.Spot.Zone)
		grid := res.Config.Grid
		for j, lbl := range sa.Labels {
			if lbl == core.Unidentified {
				continue
			}
			from, to := grid.Bounds(j)
			f := sa.Features[j]
			fmt.Printf("  %s-%s %-3v wait=%-8v arrivals=%-5.1f L=%-5.1f departures=%.1f\n",
				from.Format("15:04"), to.Format("15:04"), lbl,
				f.TWait.Round(time.Second), f.NArr, f.QLen, f.NDep)
		}
	}

	if len(results) > 1 {
		printMultiDay(results)
	}
}

// splitByDay partitions time-ordered records by calendar day.
func splitByDay(recs []mdt.Record) [][]mdt.Record {
	var out [][]mdt.Record
	var curDay time.Time
	for _, r := range recs {
		day := time.Date(r.Time.Year(), r.Time.Month(), r.Time.Day(), 0, 0, 0, 0, time.UTC)
		if len(out) == 0 || !day.Equal(curDay) {
			out = append(out, nil)
			curDay = day
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// printMultiDay renders the §7.1 multi-day registry and transition report.
func printMultiDay(results []*core.Result) {
	daily := make([][]core.QueueSpot, len(results))
	for i, r := range results {
		spots := make([]core.QueueSpot, len(r.Spots))
		for j := range r.Spots {
			spots[j] = r.Spots[j].Spot
		}
		daily[i] = spots
	}
	registry := core.MergeSpots(daily, 20, len(results)/2+1)
	stable := core.Stable(registry)
	sporadic := core.Sporadics(registry)
	fmt.Printf("\nMulti-day spot registry over %d days: %d stable, %d sporadic\n",
		len(results), len(stable), len(sporadic))

	// Transition report pooled over the busiest stable spots.
	rep := transition.NewReport(results[0].Config.Grid.Slots)
	for _, r := range results {
		for i := range r.Spots {
			if i >= 10 {
				break
			}
			rep.AddDay(r.Spots[i].Labels)
		}
	}
	fmt.Println("\nQueue-type transition probabilities (top-10 spots, all days):")
	fmt.Print(rep.Transitions.Normalize())
}

// writeGeoJSON exports the detected spots with their per-slot context mix
// for the map frontend.
func writeGeoJSON(path string, res *core.Result) error {
	fc := report.NewFeatureCollection()
	for _, sa := range res.Spots {
		counts := map[core.QueueType]int{}
		for _, l := range sa.Labels {
			counts[l]++
		}
		fc.AddPoint(sa.Spot.Pos.Lat, sa.Spot.Pos.Lon, map[string]any{
			"zone":    sa.Spot.Zone.String(),
			"pickups": sa.Spot.PickupCount,
			"c1":      counts[core.C1],
			"c2":      counts[core.C2],
			"c3":      counts[core.C3],
			"c4":      counts[core.C4],
			"unid":    counts[core.Unidentified],
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fc.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path, format string) ([]mdt.Record, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	switch format {
	case "text":
		return mdt.ReadText(f)
	case "store":
		return store.ReadSegment(f)
	default:
		return nil, fmt.Errorf("unknown format %q (want text or store)", format)
	}
}
