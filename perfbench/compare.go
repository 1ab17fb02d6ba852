package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// resultSet is the values of one results.jsonl file, grouped by workload
// then metric, end-to-end from untraced runs and layers from traced ones.
type resultSet struct {
	e2e    map[string]map[string][]float64
	layers map[string]map[string][]float64
	env    map[string]env
	failed int
}

func loadResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{e2e: map[string]map[string][]float64{}, layers: map[string]map[string][]float64{}, env: map[string]env{}}
	add := func(m map[string]map[string][]float64, w string, vals map[string]float64) {
		if m[w] == nil {
			m[w] = map[string][]float64{}
		}
		for k, v := range vals {
			m[w][k] = append(m[w][k], v)
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			add(rs.layers, rec.Workload, rec.Layers)
		} else {
			add(rs.e2e, rec.Workload, rec.EndToEnd)
		}
		rs.env[rec.Workload] = rec.Env
		rs.failed += rec.Result.Failed
	}
	return rs, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareMain prints, per workload, each end-to-end metric's median and
// quartiles with its spread (IQR / median). Given a second file it adds
// that file's median, the change between the medians, and the layer
// metrics whose medians moved most.
func compareMain(w io.Writer, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("--compare takes one or two results.jsonl files, got %d", len(paths))
	}
	sets := make([]*resultSet, len(paths))
	for i, p := range paths {
		var err error
		if sets[i], err = loadResults(p); err != nil {
			return err
		}
	}
	a := sets[0]
	for _, wl := range sortedKeys(a.e2e) {
		e := a.env[wl]
		fmt.Fprintf(w, "%s (%s, nproc %d, GOMAXPROCS driver %d server %d)\n", wl, e.GoVersion, e.NumCPU, e.DriverGOMAXPROCS, e.ServerGOMAXPROCS)
		fmt.Fprintf(w, "  %-18s %4s %12s %12s %12s %7s", "metric", "n", "q1", "median", "q3", "spread")
		if len(sets) == 2 {
			fmt.Fprintf(w, " %12s %7s %8s", "B median", "B sprd", "change")
		}
		fmt.Fprintln(w)
		for _, m := range sortedKeys(a.e2e[wl]) {
			xs := a.e2e[wl][m]
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-18s %4d %12.6g %12.6g %12.6g %6.1f%%", m, len(xs), q1, q2, q3, 100*spread(xs))
			if len(sets) == 2 {
				ys := sets[1].e2e[wl][m]
				b := median(ys)
				fmt.Fprintf(w, " %12.6g %6.1f%% %+7.1f%%", b, 100*spread(ys), 100*(b-q2)/math.Abs(q2))
			}
			fmt.Fprintln(w)
		}
		if len(sets) == 2 {
			printMovers(w, a.layers[wl], sets[1].layers[wl])
		}
	}
	for i, s := range sets {
		if s.failed > 0 {
			fmt.Fprintf(w, "%s: %d failed checks\n", paths[i], s.failed)
		}
	}
	return nil
}

// printMovers names the layer metrics whose medians changed most, relative
// to the first set's median.
func printMovers(w io.Writer, a, b map[string][]float64) {
	type mover struct {
		name    string
		from, t float64
		rel     float64
	}
	var ms []mover
	for name, xs := range a {
		ys, ok := b[name]
		if !ok {
			continue
		}
		x, y := median(xs), median(ys)
		if x == 0 || math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		ms = append(ms, mover{name, x, y, (y - x) / math.Abs(x)})
	}
	if len(ms) == 0 {
		return
	}
	sort.Slice(ms, func(i, j int) bool { return math.Abs(ms[i].rel) > math.Abs(ms[j].rel) })
	fmt.Fprintln(w, "  layers that moved most (median A → median B):")
	for _, m := range ms[:min(8, len(ms))] {
		fmt.Fprintf(w, "    %-36s %12.6g → %-12.6g %+7.1f%%\n", m.name, m.from, m.t, 100*m.rel)
	}
}
