// Command perfbench is the repository benchmark. It runs one of three
// workloads over the paper's §7 case studies, checks every answer against a
// reference computed untimed during set-up, and prints one JSON result line:
//
//	serve_fig5  the §7.2 Fig-5 query served by an in-process sjserved core
//	            to two closed-loop server.Client callers, with re-registering
//	            writes mixed in
//	batch_fig7  the §7.3 Fig-7 query run through the built scrubjay CLI,
//	            one process per op
//	dist_fig5   the Fig-5 query executed through two in-process shuffle
//	            workers under a cluster.Scheduler
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, timed from outside by wrapping calls into
// each module's public functions, plus a span artifact. README.md lists
// every metric, its unit, and the end-to-end metric it should move.
//
// Usage (normally through run.sh, which builds the CLI first):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 -cli PATH -out DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// options is one benchmark invocation.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	CLI      string // built scrubjay binary (batch_fig7)
	Out      string // artifacts and generated inputs
	Scale    scale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what the lines before the result line print: inputs, sample
// counts, quantiles, and the first failed checks.
type report struct {
	Workload   string
	Seed       int64
	Scale      string
	Trace      bool
	Seconds    float64
	Inputs     map[string]int64
	InputRows  int64
	ResultRows int64
	Samples    map[string]dist
	Checks     []string
}

// run is what one workload contributes: ops attempted and failed, the
// metrics, and the sample distributions behind them.
type run struct {
	mu                sync.Mutex // guards attempted, failed, checks
	attempted, failed int64
	checks            []string // first few failure messages
	metrics           map[string]metric
	samples           map[string]dist
	inputs            map[string]int64
	resultRows        int64
	spans             *tracer
}

// attempt counts one op; ops run from several goroutines.
func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts a failed op and keeps its message.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.checks) < 8 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// keep records a sample distribution and returns its summary.
func (r *run) keep(name string, xs []float64) dist {
	d := summarize(xs)
	if r.samples == nil {
		r.samples = map[string]dist{}
	}
	r.samples[name] = d
	return d
}

type workload interface {
	// setup generates the seeded inputs, computes the reference answer,
	// and brings the system up (timing fresh set-ups for setup_s).
	setup(o options, r *run) error
	// warm runs a few checked, untimed ops so connections, caches and the
	// page cache are warm before timing starts.
	warm(r *run)
	// measure runs the closed loop for o.Seconds with tracing off and
	// sets the end-to-end metrics.
	measure(o options, r *run) error
	// layers runs the traced decomposition for o.Seconds and sets the
	// per-layer metrics.
	layers(o options, r *run) error
	close()
}

var workloads = map[string]func() workload{
	"serve_fig5": func() workload { return &serveBench{} },
	"batch_fig7": func() workload { return &batchBench{} },
	"dist_fig5":  func() workload { return &distBench{} },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "serve_fig5, batch_fig7, or dist_fig5")
	flag.Int64Var(&o.Seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&o.CLI, "cli", "", "built scrubjay binary (needed by batch_fig7)")
	flag.StringVar(&o.Out, "out", ".bench_build/out", "directory for generated inputs and artifacts")
	flag.Parse()
	o.Trace = trace == 1
	if (trace != 0 && trace != 1) || o.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad -trace or -seconds")
		os.Exit(2)
	}
	o.Scale = fullScale
	res, rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one invocation end to end: set-up, the measured (or traced)
// phase, self-checks, and the span artifact under o.Out.
func execute(o options) (result, report, error) {
	mk, ok := workloads[o.Workload]
	if !ok {
		return result{}, report{}, fmt.Errorf("unknown workload %q", o.Workload)
	}
	out, err := filepath.Abs(o.Out)
	if err != nil {
		return result{}, report{}, err
	}
	o.Out = out
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return result{}, report{}, err
	}
	w := mk()
	defer w.close()
	r := &run{}
	if err := w.setup(o, r); err != nil {
		return result{}, report{}, fmt.Errorf("%s set-up: %w", o.Workload, err)
	}
	w.warm(r)
	runtime.GC() // the timed phase does not collect set-up garbage
	if o.Trace {
		r.spans = newTracer()
		err = w.layers(o, r)
	} else {
		err = w.measure(o, r)
	}
	if err != nil {
		return result{}, report{}, fmt.Errorf("%s: %w", o.Workload, err)
	}
	want := endToEnd
	if o.Trace {
		want = perLayer
	}
	metrics := map[string]metric{}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return result{}, report{}, fmt.Errorf("%s: metric %s not measured", o.Workload, name)
		}
		metrics[name] = m
	}
	for name, d := range r.samples {
		if !d.ordered() {
			r.fail("quantiles of %s out of order: p50=%g p90=%g max=%g", name, d.P50, d.P90, d.Max)
		}
	}
	if r.attempted == 0 {
		return result{}, report{}, fmt.Errorf("%s: no op completed in %gs", o.Workload, o.Seconds)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	rep := report{
		Workload:   o.Workload,
		Seed:       o.Seed,
		Scale:      o.Scale.Name,
		Trace:      o.Trace,
		Seconds:    o.Seconds,
		Inputs:     r.inputs,
		ResultRows: r.resultRows,
		Samples:    r.samples,
		Checks:     r.checks,
	}
	for _, n := range r.inputs {
		rep.InputRows += n
	}
	if r.spans != nil {
		path := filepath.Join(o.Out, fmt.Sprintf("%s-seed%d-trace1.spans.json", o.Workload, o.Seed))
		if err := writeJSON(path, r.spans.artifact(o.Workload, o.Seed)); err != nil {
			return result{}, report{}, err
		}
	}
	return res, rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable lines that precede the result line:
// seed, scale, input rows, and every kept distribution with its sample count.
func printReport(rep report) {
	names := make([]string, 0, len(rep.Inputs))
	for n := range rep.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	var in []string
	for _, n := range names {
		in = append(in, fmt.Sprintf("%s=%d", n, rep.Inputs[n]))
	}
	fmt.Printf("perfbench %s seed=%d scale=%s trace=%v seconds=%g\n", rep.Workload, rep.Seed, rep.Scale, rep.Trace, rep.Seconds)
	fmt.Printf("  inputs: %s (total %d rows), result %d rows\n", strings.Join(in, " "), rep.InputRows, rep.ResultRows)
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %s\n", k, rep.Samples[k])
	}
	for _, c := range rep.Checks {
		fmt.Printf("  FAILED CHECK: %s\n", c)
	}
}
