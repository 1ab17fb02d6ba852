// Command perfbench is the repository benchmark: it drives the paper's
// batch pipeline in process (batch-day) and a queued server over HTTP
// (live-ingest, live-mixed), checks that the outputs are right, and prints
// every metric named in BENCHMARK.json. Layers are timed only from outside:
// around calls into the internal packages, around HTTP calls, and from
// deltas of the /metrics, /ingest/stats and /proc values queued already
// exposes.
//
// Run it through run.sh from the repository root, which builds queued and
// this driver first:
//
//	bash perfbench/run.sh --workload live-mixed --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. Each run also
// appends a fuller record (seed, environment, both metric sets, failed
// checks) to <out>/results.jsonl, which --compare reads. NOTES.md says why
// each workload exists and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	queued   string // queued binary, for the live workloads
	out      string // build and scratch directory
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the driver reads: which metrics
// to print in which mode, with their units. The file is the single source
// of truth for the metric names.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records what the numbers were measured on.
type env struct {
	GoVersion        string `json:"go_version"`
	NumCPU           int    `json:"nproc"`
	DriverGOMAXPROCS int    `json:"driver_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"` // 0 when no server ran
	FeedConns        int    `json:"feed_conns"`
	ReadConns        int    `json:"read_conns"`
	// StealS and IOWaitS are the machine's CPU steal and I/O wait over the
	// run, from /proc/stat: how much a noisy host may have moved the run.
	StealS  float64 `json:"steal_s"`
	IOWaitS float64 `json:"iowait_s"`
}

// record is one line of results.jsonl.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  int                `json:"seconds"`
	Env      env                `json:"env"`
	Result   result             `json:"result"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers"`
	Failures []string           `json:"failures,omitempty"`
	At       time.Time          `json:"at"`
}

// run collects what one workload measured and checked.
type run struct {
	o        opts
	env      env
	e2e      map[string]float64
	layers   map[string]float64
	attempts int
	fails    []string
	tr       *tracer
}

func newRun(o opts) *run {
	return &run{
		o:      o,
		env:    env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), DriverGOMAXPROCS: runtime.GOMAXPROCS(0)},
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		tr:     newTracer(o.trace),
	}
}

// check counts one correctness check (or one operation) and records why it
// failed.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempts++
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops counts n operations of which failed did not succeed, without a
// message per operation.
func (r *run) ops(what string, n, failed int) {
	r.attempts += n
	for i := 0; i < failed; i++ {
		r.fails = append(r.fails, what)
	}
}

// workloads maps the names BENCHMARK.json declares to their drivers.
var workloads = map[string]func(*run) error{
	"batch-day":   runBatchDay,
	"live-ingest": runLiveIngest,
	"live-mixed":  runLiveMixed,
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload: batch-day, live-ingest or live-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&o.queued, "queued", "", "queued binary")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for inputs, scratch data, traces and results")
	compare := flag.Bool("compare", false, "summarize results.jsonl files given as arguments (two: compare them)")
	gen := flag.String("gen", "", "internal: write the input of -workload for -seed to this file")
	flag.Parse()
	o.trace = *trace == 1

	if *compare {
		if err := compareMain(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *gen != "" {
		if err := generateInput(o.workload, o.seed, *gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainRun(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainRun(o opts) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == o.workload
	}
	fn := workloads[o.workload]
	if !known || fn == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		return err
	}
	r := newRun(o)
	steal0, iowait0 := machineStat()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	steal1, iowait1 := machineStat()
	r.env.StealS, r.env.IOWaitS = steal1-steal0, iowait1-iowait0
	r.e2e["ok_ratio"] = float64(r.attempts-len(r.fails)) / float64(max(r.attempts, 1))

	res := result{
		Correct:   len(r.fails) == 0,
		Attempted: max(r.attempts, 1),
		Failed:    len(r.fails),
		Metrics:   map[string]metric{},
	}
	defs, values := spec.EndToEnd, r.e2e
	if o.trace {
		defs, values = spec.PerLayer, r.layers
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A layer this workload does not exercise reads 0.
			if !o.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, f := range r.fails {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if err := r.tr.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))); err != nil {
		return err
	}
	if err := appendRecord(filepath.Join(o.out, "results.jsonl"), record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Env: r.env, Result: res, EndToEnd: finite(r.e2e), Layers: finite(r.layers), Failures: r.fails, At: time.Now().UTC(),
	}); err != nil {
		return err
	}
	envLine, _ := json.Marshal(r.env)
	fmt.Printf("perfbench env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finite drops the NaN and infinite values JSON cannot carry (a ratio or
// quantile over no observations).
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDir makes a fresh scratch directory for this run's data files under
// out; the caller removes it.
func (r *run) runDir() (string, error) {
	base := filepath.Join(r.o.out, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, strings.ReplaceAll(r.o.workload, "-", "")+"-")
}
