package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"scrubjay/internal/bench"
	"scrubjay/internal/cluster"
	"scrubjay/internal/frame"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/server"
	"scrubjay/internal/shuffle"
)

// distBench is dist_fig5: the Fig-5 query with every exchange routed
// through two in-process shuffle workers under a cluster.Scheduler.
type distBench struct {
	in      inputs
	ref     digest
	store   *server.Store // loaded once, as a daemon would
	workers []*shuffle.Server
	reg     *cluster.Registry
	met     *obs.Registry
	place   *countingPlacement
	ops     int64
}

// countingPlacement is a benchmark-side rdd.Placement decorator around the
// Scheduler: it times every exchange and counts the bytes handed in and
// returned, without touching the scheduler itself.
type countingPlacement struct {
	next rdd.Placement
	mu   sync.Mutex
	cur  exchangeTally
}

type exchangeTally struct {
	calls             int
	callMs            []float64
	bytesIn, bytesOut int64
}

func (p *countingPlacement) Exchange(ctx context.Context, stage string, numOut int, enc [][][]byte) ([][]byte, error) {
	var in int64
	for _, src := range enc {
		for _, b := range src {
			in += int64(len(b))
		}
	}
	start := time.Now()
	out, err := p.next.Exchange(ctx, stage, numOut, enc)
	d := time.Since(start)
	var n int64
	for _, b := range out {
		n += int64(len(b))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cur.calls++
	p.cur.callMs = append(p.cur.callMs, ms(d))
	p.cur.bytesIn += in
	p.cur.bytesOut += n
	return out, err
}

// take returns and resets the tally since the last take (one op).
func (p *countingPlacement) take() exchangeTally {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.cur
	p.cur = exchangeTally{}
	return t
}

func (b *distBench) setup(o options, r *run) error {
	var err error
	if b.in, err = generate(filepath.Join(o.Out, "inputs-dist_fig5"), 1, o.Scale, o.Seed); err != nil {
		return err
	}
	r.inputs = b.in.Rows

	// setup_s: catalog loaded into frames, two workers serving and
	// registered, scheduler built; the median of several fresh set-ups.
	var ds []float64
	for i := 0; i < o.Scale.SetupReps; i++ {
		b.close()
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		if err := b.start(); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.set("setup_s", r.keep("setup_s", ds).P50, "s")

	// Reference: local in-process execution of the same plan, untimed.
	rc := rdd.NewContext(0)
	cat, schemas, _ := b.store.Snapshot(rc, true)
	plan, _, err := solve(schemas, bench.Fig5Query())
	if err != nil {
		return err
	}
	checkSteps(r, "reference", plan.Steps(), bench.Fig5ExpectedSteps)
	frames, _, _, _, err := execCollect(rc, plan, cat, nil, 0, 0)
	if err != nil {
		return err
	}
	b.ref = digestFrames(frames)
	r.resultRows = b.ref.N
	return nil
}

func (b *distBench) start() error {
	var err error
	if b.store, err = loadStore(b.in.Dir); err != nil {
		return err
	}
	b.reg = cluster.NewRegistry("perfbench", 10*time.Second, 2)
	for i := 0; i < 2; i++ {
		w, err := shuffle.Serve("127.0.0.1:0", fmt.Sprintf("perfbench-w%d", i))
		if err != nil {
			return err
		}
		b.workers = append(b.workers, w)
		if _, err := b.reg.Register(context.Background(), w.Addr()); err != nil {
			return err
		}
	}
	b.met = obs.NewRegistry()
	b.place = &countingPlacement{next: cluster.NewScheduler(b.reg, cluster.Options{Metrics: b.met})}
	return nil
}

func (b *distBench) close() {
	if b.reg != nil {
		b.reg.Close()
		b.reg = nil
	}
	for _, w := range b.workers {
		w.Close()
	}
	b.workers = nil
}

// op is one closed-loop query: Solve, Execute with the placement, and the
// frame collect. It returns the timed wall and the result frames.
func (b *distBench) op(tr *tracer, op int64, parent int) (time.Duration, *pipeline.Plan, []*frame.Frame, error) {
	rc := rdd.NewContext(0).WithPlacement(b.place)
	cat, schemas, _ := b.store.Snapshot(rc, true)
	var plan *pipeline.Plan
	var frames []*frame.Frame
	var err error
	start := time.Now()
	root := tr.begin(op, parent, "dist.query")
	plan, _, _, err = timedSolve(tr, op, root, schemas, bench.Fig5Query())
	if err == nil {
		frames, _, _, _, err = execCollect(rc, plan, cat, tr, op, root)
	}
	tr.end(root)
	return time.Since(start), plan, frames, err
}

// check verifies one answer: plan steps, rows, digest, and at least one
// exchange moved through the workers.
func (b *distBench) check(plan *pipeline.Plan, frames []*frame.Frame, t exchangeTally) error {
	if !slices.Equal(plan.Steps(), bench.Fig5ExpectedSteps) {
		return fmt.Errorf("plan steps %v, want %v", plan.Steps(), bench.Fig5ExpectedSteps)
	}
	if t.calls == 0 {
		return fmt.Errorf("no exchange moved through the workers")
	}
	if got := digestFrames(frames); got != b.ref {
		return fmt.Errorf("result %v, want %v", got, b.ref)
	}
	return nil
}

// warm runs one checked op.
func (b *distBench) warm(r *run) {
	b.loop(r, time.Time{}, false, 1)
}

// loop runs the single closed-loop caller until the deadline, and at least
// minOps ops; with traced set every other op runs under spans.
func (b *distBench) loop(r *run, deadline time.Time, traced bool, minOps int) (untraced, tracedMs []float64, completed int64, harness time.Duration) {
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		r.attempt()
		var tr *tracer
		if traced && i%2 == 1 {
			tr = r.spans
		}
		b.ops++
		b.place.take()
		d, plan, frames, err := b.op(tr, b.ops, 0)
		tally := b.place.take()
		if err == nil {
			harness += harnessCPU(func() { err = b.check(plan, frames, tally) })
		}
		if err != nil {
			r.fail("dist query: %v", err)
			continue
		}
		completed++
		if tr != nil {
			tracedMs = append(tracedMs, ms(d))
		} else {
			untraced = append(untraced, ms(d))
		}
	}
	return untraced, tracedMs, completed, harness
}

func (b *distBench) measure(o options, r *run) error {
	cpu0 := processCPU()
	start := time.Now()
	lat, _, completed, harness := b.loop(r, start.Add(time.Duration(o.Seconds*float64(time.Second))), false, 1)
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0 - harness
	if completed == 0 {
		return fmt.Errorf("no query answered correctly")
	}
	r.set("query_p50_ms", r.keep("query_ms", lat).P50, "ms")
	r.set("throughput_qps", float64(completed)/elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_query", ms(cpu)/float64(completed), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

func (b *distBench) layers(o options, r *run) error {
	half := time.Duration(o.Seconds * float64(time.Second) / 2)
	lat, traced, _, _ := b.loop(r, time.Now().Add(half), true, 2)
	if len(lat) == 0 || len(traced) == 0 {
		return fmt.Errorf("closed loop answered no queries")
	}
	e2e := r.keep("query_ms", lat).P50
	r.setLayer("trace.overhead_ms", r.keep("traced_query_ms", traced).P50-e2e)

	retries0 := b.met.Counter("cluster_task_retries_total").Load()
	stragglers0 := b.met.Counter("cluster_straggler_backups_total").Load()
	s := samples{}
	deadline := time.Now().Add(half)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.decompose(r, s); err != nil {
			return err
		}
	}
	s.setMedians(r)
	r.setLayer("cluster.retries", float64(b.met.Counter("cluster_task_retries_total").Load()-retries0))
	r.setLayer("cluster.stragglers", float64(b.met.Counter("cluster_straggler_backups_total").Load()-stragglers0))
	named := r.metrics["engine.solve_us"].Value/1000 + r.metrics["pipeline.execute_ms"].Value + r.metrics["rdd.collect_ms"].Value
	r.setLayer("unattributed_ms", e2e-named)
	r.zeroLayers()
	return nil
}

// decompose runs one op's layers one at a time: catalog load (what set-up
// pays), cold solve, the distributed execute and collect with per-exchange
// accounting, the same plan executed locally, and every derivation step
// through the workers. dist.codec_ms is what the distributed run costs
// beyond the local one and the exchange calls themselves.
func (b *distBench) decompose(r *run, s samples) error {
	tr := r.spans
	b.ops++
	op := b.ops
	root := tr.begin(op, 0, "dist.decompose")
	defer tr.end(root)
	r.attempt()

	var err error
	d := tr.timed(op, root, "catalog.load", func() { _, err = loadStore(b.in.Dir) })
	if err != nil {
		return err
	}
	s.add("catalog.load_ms", ms(d))
	s.add("catalog.input_rows", float64(sumRows(b.in.Rows)))
	s.add("catalog.input_bytes", float64(b.in.Bytes))

	rc := rdd.NewContext(0).WithPlacement(b.place)
	cat, schemas, _ := b.store.Snapshot(rc, true)
	plan, hits, d, err := timedSolve(tr, op, root, schemas, bench.Fig5Query())
	if err != nil {
		return err
	}
	s.add("engine.solve_us", float64(d.Microseconds()))
	s.add("engine.memo_hits", float64(hits))

	b.place.take()
	frames, _, dExec, dCol, err := execCollect(rc, plan, cat, tr, op, root)
	if err != nil {
		return err
	}
	tally := b.place.take()
	if err := b.check(plan, frames, tally); err != nil {
		r.fail("decomposed dist query: %v", err)
		return nil
	}
	s.add("pipeline.execute_ms", ms(dExec))
	s.add("rdd.collect_ms", ms(dCol))
	s.add("rdd.collect_rows", float64(frameRows(frames)))
	var exMs float64
	for _, c := range tally.callMs {
		exMs += c
		s.add("cluster.exchange_p50_ms", c)
	}
	s.add("cluster.exchanges", float64(tally.calls))
	s.add("cluster.exchange_ms", exMs)
	s.add("cluster.bytes_in", float64(tally.bytesIn))
	s.add("cluster.bytes_out", float64(tally.bytesOut))

	lc := rdd.NewContext(0)
	lcat, _, _ := b.store.Snapshot(lc, true)
	local := tr.begin(op, root, "dist.local_baseline")
	_, _, lExec, lCol, err := execCollect(lc, plan, lcat, nil, 0, 0)
	tr.end(local)
	if err != nil {
		return err
	}
	s.add("dist.codec_ms", ms(dExec+dCol-lExec-lCol)-exMs)

	steps, err := runSteps(rc, plan, cat, tr, op, root)
	if err != nil {
		return err
	}
	b.place.take()
	s.addSteps(steps)
	return nil
}
