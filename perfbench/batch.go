package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"scrubjay/internal/bench"
	"scrubjay/internal/catalog"
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/wrappers"
)

// batchBench is batch_fig7: the §7.3 query the way batch users run it, one
// `scrubjay query` process per op over a DAT-2 catalog directory.
type batchBench struct {
	in      inputs
	cli     string
	outCSV  string // the CLI's -out sink, rewritten by every op
	outPlan string // the CLI's -plan file, rewritten by every op
	scratch string // in-process CSV writes of the traced decomposition
	ref     digest // CSV lines of the reference result
	ops     int64
}

func (b *batchBench) args() []string {
	return []string{"query", "-catalog", b.in.Dir, "-domains", "cpu",
		"-values", "active_frequency,instructions/time_duration,memory_reads/time_duration",
		"-out", "csv:" + b.outCSV, "-plan", b.outPlan}
}

func (b *batchBench) setup(o options, r *run) error {
	if o.CLI == "" {
		return fmt.Errorf("-cli is required")
	}
	b.cli = o.CLI
	var err error
	if b.in, err = generate(filepath.Join(o.Out, "inputs-batch_fig7"), 2, o.Scale, o.Seed); err != nil {
		return err
	}
	r.inputs = b.in.Rows
	b.outCSV = filepath.Join(o.Out, "batch_fig7.out.csv")
	b.outPlan = filepath.Join(o.Out, "batch_fig7.plan.json")
	b.scratch = filepath.Join(o.Out, "batch_fig7.layer.csv")

	// setup_s: the in-process catalog load of the DAT-2 directory, the
	// median of several; batch has no long-lived server to bring up.
	var ds []float64
	var cat pipeline.Catalog
	var schemas map[string]semantics.Schema
	for i := 0; i < o.Scale.BatchSetupReps; i++ {
		runtime.GC() // each load starts from a collected heap
		start := time.Now()
		if cat, schemas, err = b.load(); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.set("setup_s", r.keep("setup_s", ds).P50, "s")

	// Reference: the same query run in-process the way the CLI runs it,
	// written through the same CSV wrapper, untimed.
	plan, _, err := solve(schemas, bench.Fig7Query())
	if err != nil {
		return err
	}
	checkSteps(r, "reference", plan.Steps(), bench.Fig7ExpectedSteps)
	frames, schema, _, _, err := execCollect(rdd.NewContext(0), plan, cat, nil, 0, 0)
	if err != nil {
		return err
	}
	ref := filepath.Join(o.Out, "batch_fig7.ref.csv")
	if err := b.write(frames, schema, ref); err != nil {
		return err
	}
	if b.ref, err = digestLines(ref); err != nil {
		return err
	}
	r.resultRows = frameRows(frames)
	return nil
}

// close removes the per-op outputs; generated inputs stay for inspection.
func (b *batchBench) close() {
	for _, p := range []string{b.outCSV, b.outPlan, b.scratch} {
		if p != "" {
			os.Remove(p)
		}
	}
}

// load is the CLI's catalog step: catalog.Load (wrapper decode) plus the
// lazy columnar view the CLI executes over.
func (b *batchBench) load() (pipeline.Catalog, map[string]semantics.Schema, error) {
	cat, schemas, err := catalog.Load(rdd.NewContext(0), b.in.Dir)
	if err != nil {
		return nil, nil, err
	}
	for name, ds := range cat {
		cat[name] = ds.Columnar()
	}
	return cat, schemas, nil
}

// write is the wrappers layer: the result frames through the CSV wrapper.
func (b *batchBench) write(frames []*frame.Frame, schema semantics.Schema, path string) error {
	ds := dataset.FromFrames(rdd.NewContext(0), "result", frames, schema)
	return wrappers.Write(ds, wrappers.Source{Format: "csv", Path: path})
}

// digestLines fingerprints a CSV result by its lines, in any order.
func digestLines(path string) (digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return digest{}, err
	}
	var d digest
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		d.add(line)
	}
	return d, nil
}

// cliRun is one CLI process: its wall (start to exit), CPU, and peak RSS.
type cliRun struct {
	wall, cpu time.Duration
	rssMB     float64
}

// runCLI executes one op and checks it: exit status, plan steps, and the
// CSV result against the reference.
func (b *batchBench) runCLI(tr *tracer, op int64, parent int) (cliRun, error) {
	os.Remove(b.outCSV)
	os.Remove(b.outPlan)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.cli, b.args()...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	var err error
	d := tr.timed(op, parent, "cli.process", func() { err = cmd.Run() })
	if err != nil {
		return cliRun{}, fmt.Errorf("scrubjay query: %v: %s", err, bytes.TrimSpace(out.Bytes()))
	}
	run := cliRun{wall: d, cpu: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024
	}
	data, err := os.ReadFile(b.outPlan)
	if err != nil {
		return run, err
	}
	plan, err := pipeline.Decode(data)
	if err != nil {
		return run, err
	}
	if !slices.Equal(plan.Steps(), bench.Fig7ExpectedSteps) {
		return run, fmt.Errorf("plan steps %v, want %v", plan.Steps(), bench.Fig7ExpectedSteps)
	}
	got, err := digestLines(b.outCSV)
	if err != nil {
		return run, err
	}
	if got != b.ref {
		return run, fmt.Errorf("CSV result %v, want %v", got, b.ref)
	}
	return run, nil
}

// warm runs one checked CLI op, which also pages in the binary and inputs.
func (b *batchBench) warm(r *run) {
	b.loop(r, time.Time{}, false, 1)
}

// loop runs CLI ops one at a time until the deadline, and at least minOps
// of them; with traced set every other op runs under a span.
func (b *batchBench) loop(r *run, deadline time.Time, traced bool, minOps int) (untraced, tracedRuns []cliRun) {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		r.attempt()
		var tr *tracer
		if traced && i%2 == 1 {
			tr = r.spans
		}
		b.ops++
		run, err := b.runCLI(tr, b.ops, 0)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		if tr != nil {
			tracedRuns = append(tracedRuns, run)
		} else {
			untraced = append(untraced, run)
		}
	}
	return untraced, tracedRuns
}

func walls(runs []cliRun) []float64 {
	out := make([]float64, len(runs))
	for i, c := range runs {
		out[i] = ms(c.wall)
	}
	return out
}

func (b *batchBench) measure(o options, r *run) error {
	start := time.Now()
	runs, _ := b.loop(r, start.Add(time.Duration(o.Seconds*float64(time.Second))), false, 1)
	elapsed := time.Since(start)
	if len(runs) == 0 {
		return fmt.Errorf("no CLI run answered correctly")
	}
	var cpu time.Duration
	rss := make([]float64, len(runs))
	for i, c := range runs {
		cpu += c.cpu
		rss[i] = c.rssMB
	}
	r.set("query_p50_ms", r.keep("query_ms", walls(runs)).P50, "ms")
	r.set("throughput_qps", float64(len(runs))/elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_query", ms(cpu)/float64(len(runs)), "ms")
	r.set("peak_rss_mb", r.keep("cli_peak_rss_mb", rss).P50, "MB")
	return nil
}

func (b *batchBench) layers(o options, r *run) error {
	half := time.Duration(o.Seconds * float64(time.Second) / 2)
	runs, traced := b.loop(r, time.Now().Add(half), true, 2)
	if len(runs) == 0 || len(traced) == 0 {
		return fmt.Errorf("closed loop answered no queries")
	}
	e2e := r.keep("query_ms", walls(runs)).P50
	r.setLayer("trace.overhead_ms", r.keep("traced_query_ms", walls(traced)).P50-e2e)

	s := samples{}
	deadline := time.Now().Add(half)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.decompose(r, s); err != nil {
			return err
		}
	}
	s.setMedians(r)
	named := 0.0
	for _, n := range []string{"catalog.load_ms", "pipeline.execute_ms", "rdd.collect_ms", "wrappers.write_ms", "cli.residual_ms"} {
		named += r.metrics[n].Value
	}
	named += r.metrics["engine.solve_us"].Value / 1000
	r.setLayer("unattributed_ms", e2e-named)
	r.zeroLayers()
	return nil
}

// decompose runs the CLI's layers in-process one at a time — catalog
// load, cold solve, execute, collect, every derivation step, the CSV
// write — then the real CLI once. cli.residual_ms is the CLI wall minus
// the in-process sum: process start, flag parsing, the emit path's own
// evaluation, and exit.
func (b *batchBench) decompose(r *run, s samples) error {
	tr := r.spans
	b.ops++
	op := b.ops
	root := tr.begin(op, 0, "batch.decompose")
	defer tr.end(root)
	r.attempt()

	var cat pipeline.Catalog
	var schemas map[string]semantics.Schema
	var err error
	dLoad := tr.timed(op, root, "catalog.load", func() { cat, schemas, err = b.load() })
	if err != nil {
		return err
	}
	s.add("catalog.load_ms", ms(dLoad))
	s.add("catalog.input_rows", float64(sumRows(b.in.Rows)))
	s.add("catalog.input_bytes", float64(b.in.Bytes))

	plan, hits, dSolve, err := timedSolve(tr, op, root, schemas, bench.Fig7Query())
	if err != nil {
		return err
	}
	s.add("engine.solve_us", float64(dSolve.Microseconds()))
	s.add("engine.memo_hits", float64(hits))

	rc := rdd.NewContext(0)
	frames, schema, dExec, dCol, err := execCollect(rc, plan, cat, tr, op, root)
	if err != nil {
		return err
	}
	s.add("pipeline.execute_ms", ms(dExec))
	s.add("rdd.collect_ms", ms(dCol))
	s.add("rdd.collect_rows", float64(frameRows(frames)))

	steps, err := runSteps(rc, plan, cat, tr, op, root)
	if err != nil {
		return err
	}
	s.addSteps(steps)

	dWrite := tr.timed(op, root, "wrappers.write", func() { err = b.write(frames, schema, b.scratch) })
	if err != nil {
		return err
	}
	s.add("wrappers.write_ms", ms(dWrite))
	if got, err := digestLines(b.scratch); err != nil || got != b.ref {
		r.fail("in-process CSV result %v (%v), want %v", got, err, b.ref)
		return nil
	}

	run, err := b.runCLI(tr, op, root)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	s.add("cli.residual_ms", ms(run.wall-dLoad-dSolve-dExec-dCol-dWrite))
	return nil
}
