package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/bench"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/server"
	"scrubjay/internal/value"
	"scrubjay/internal/wrappers"
)

// serveBench is serve_fig5: the §7.2 query as an interactive analyst sees
// it, through an in-process server on a loopback listener.
type serveBench struct {
	in     inputs
	ref    digest
	srv    *http.Server
	served chan struct{} // closed when srv.Serve returns
	tp     *http.Transport
	cl     *server.Client
	writes []string     // datasets re-registered by write ops, round robin
	opSeq  atomic.Int64 // span op ids, shared by the callers
}

func (b *serveBench) nextOp() int64 { return b.opSeq.Add(1) }

func fig5Request() server.QueryRequest { return server.QueryRequest{Query: bench.Fig5Query()} }

func (b *serveBench) setup(o options, r *run) error {
	var err error
	if b.in, err = generate(filepath.Join(o.Out, "inputs-serve_fig5"), 1, o.Scale, o.Seed); err != nil {
		return err
	}
	r.inputs = b.in.Rows
	b.writes = b.in.names()

	// Reference: local in-process execution of the same query, untimed.
	store, err := loadStore(b.in.Dir)
	if err != nil {
		return err
	}
	rc := rdd.NewContext(0)
	cat, schemas, _ := store.Snapshot(rc, true)
	plan, _, err := solve(schemas, bench.Fig5Query())
	if err != nil {
		return err
	}
	checkSteps(r, "reference", plan.Steps(), bench.Fig5ExpectedSteps)
	frames, _, _, _, err := execCollect(rc, plan, cat, nil, 0, 0)
	if err != nil {
		return err
	}
	var rows []value.Row
	for _, f := range frames {
		rows = append(rows, f.ToRows()...)
	}
	b.ref = digestRows(rows)
	r.resultRows = b.ref.N

	// setup_s: catalog loaded, server built, listener answering /healthz;
	// the median of several fresh set-ups. The last one stays up.
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
	return nil
}

// start brings up a server with sjserved's defaults (columnar, trace ring
// 64, 4 executor slots, no result cache or statistics) and waits until it
// answers.
func (b *serveBench) start() error {
	store, err := loadStore(b.in.Dir)
	if err != nil {
		return err
	}
	s := server.New(store, server.Config{
		MaxConcurrent: 4,
		MaxQueue:      64,
		PlanCacheSize: 256,
		WindowSeconds: 120,
		TraceRing:     64,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: s.Handler()}
	b.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		srv.Serve(ln)
	}(b.srv, b.served)
	b.tp = &http.Transport{MaxIdleConnsPerHost: 8}
	b.cl = &server.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: b.tp}}
	for {
		resp, err := b.cl.HTTP.Get(b.cl.BaseURL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	b.srv.Close()
	<-b.served
	b.tp.CloseIdleConnections()
	b.srv = nil
}

// warm runs one checked query per caller slot.
func (b *serveBench) warm(r *run) {
	for c := 0; c < serveCallers; c++ {
		r.attempt()
		b.queryOp(r, &loopStats{}, false)
	}
}

// checkQuery verifies one answer against the reference.
func (b *serveBench) checkQuery(h server.StreamHeader, rows []value.Row, t server.StreamTrailer) error {
	if !slices.Equal(h.Steps, bench.Fig5ExpectedSteps) {
		return fmt.Errorf("plan steps %v, want %v", h.Steps, bench.Fig5ExpectedSteps)
	}
	if t.Rows != b.ref.N {
		return fmt.Errorf("trailer reports %d rows, want %d", t.Rows, b.ref.N)
	}
	if got := digestRows(rows); got != b.ref {
		return fmt.Errorf("result %v, want %v", got, b.ref)
	}
	return nil
}

// loopStats is what the closed loop observed.
type loopStats struct {
	mu        sync.Mutex
	queryMs   []float64 // untraced queries
	tracedMs  []float64 // traced queries (trace run only)
	writeMs   []float64
	completed int64 // ops answered correctly
	queries   int64 // queries answered correctly
	rejected  int64
	harness   time.Duration // CPU spent checking answers
}

const (
	// serveCallers is the closed loop's client count: analysts wait for
	// each answer, and two callers (= nproc) keep both CPUs busy.
	serveCallers = 2
	// writeEvery makes one op in ten per caller a write.
	writeEvery = 10
)

// loop runs the closed loop: callers each issue an op, wait for the
// answer, check it, and issue the next, until the deadline. One op in
// writeEvery is a write re-registering one dataset from its own file (same
// content, new catalog version, so the next query re-plans); a seeded phase
// keeps the callers from writing in lockstep. With traced set, every other
// query runs under a span.
func (b *serveBench) loop(o options, r *run, deadline time.Time, traced bool) *loopStats {
	st := &loopStats{}
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed*7919 + int64(c)))
			phase := rng.Intn(writeEvery)
			for i := 0; time.Now().Before(deadline); i++ {
				r.attempt()
				if (i+phase)%writeEvery == writeEvery-1 {
					b.writeOp(r, st, b.writes[(i/writeEvery+c)%len(b.writes)])
					continue
				}
				b.queryOp(r, st, traced && i%2 == 1)
			}
		}(c)
	}
	wg.Wait()
	return st
}

func (b *serveBench) queryOp(r *run, st *loopStats, traced bool) {
	var tr *tracer
	if traced {
		tr = r.spans
	}
	var h server.StreamHeader
	var rows []value.Row
	var t server.StreamTrailer
	var err error
	d := tr.timed(b.nextOp(), 0, "serve.query", func() { h, rows, t, err = b.cl.Query(fig5Request()) })
	if err != nil {
		st.noteErr(err)
		r.fail("query: %v", err)
		return
	}
	var cerr error
	cpu := harnessCPU(func() { cerr = b.checkQuery(h, rows, t) })
	st.mu.Lock()
	defer st.mu.Unlock()
	st.harness += cpu
	if cerr != nil {
		r.fail("query: %v", cerr)
		return
	}
	if traced {
		st.tracedMs = append(st.tracedMs, ms(d))
	} else {
		st.queryMs = append(st.queryMs, ms(d))
	}
	st.completed++
	st.queries++
}

// register is the write op: re-register one dataset from its own file and
// check the row count the server reports.
func (b *serveBench) register(name string) error {
	info, err := b.cl.Register(server.RegisterRequest{
		Name:    name,
		Source:  &wrappers.Source{Format: "jsonl", Path: b.in.Files[name], Name: name},
		Replace: true,
	})
	if err == nil && info.Rows != b.in.Rows[name] {
		err = fmt.Errorf("re-registered %s with %d rows, want %d", name, info.Rows, b.in.Rows[name])
	}
	return err
}

func (b *serveBench) writeOp(r *run, st *loopStats, name string) {
	start := time.Now()
	err := b.register(name)
	d := time.Since(start)
	if err != nil {
		st.noteErr(err)
		r.fail("write: %v", err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.writeMs = append(st.writeMs, ms(d))
	st.completed++
}

func (st *loopStats) noteErr(err error) {
	var he *server.HTTPError
	if errors.As(err, &he) && he.Rejected() {
		st.mu.Lock()
		st.rejected++
		st.mu.Unlock()
	}
}

func (b *serveBench) measure(o options, r *run) error {
	cpu0 := processCPU()
	start := time.Now()
	st := b.loop(o, r, start.Add(time.Duration(o.Seconds*float64(time.Second))), false)
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0 - st.harness
	if st.queries == 0 {
		return fmt.Errorf("no query answered correctly")
	}
	r.set("query_p50_ms", r.keep("query_ms", st.queryMs).P50, "ms")
	r.keep("write_ms", st.writeMs)
	r.set("throughput_qps", float64(st.queries)/elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_query", ms(cpu)/float64(st.completed), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// layers spends half the time in the closed loop with every other query
// traced (tracing overhead), and half in the per-layer decomposition.
func (b *serveBench) layers(o options, r *run) error {
	half := time.Duration(o.Seconds * float64(time.Second) / 2)
	st := b.loop(o, r, time.Now().Add(half), true)
	if len(st.queryMs) == 0 || len(st.tracedMs) == 0 {
		return fmt.Errorf("closed loop answered no queries")
	}
	e2e := r.keep("query_ms", st.queryMs).P50
	r.setLayer("trace.overhead_ms", r.keep("traced_query_ms", st.tracedMs).P50-e2e)
	rejected := st.rejected

	s := samples{}
	deadline := time.Now().Add(half)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		rej, err := b.decompose(r, s, b.writes[i%len(b.writes)])
		rejected += rej
		if err != nil {
			return err
		}
	}
	s.setMedians(r)
	r.setLayer("server.rejected", float64(rejected))
	named := r.metrics["server.plan_hit_us"].Value/1000 + r.metrics["pipeline.execute_ms"].Value +
		r.metrics["rdd.collect_ms"].Value + r.metrics["frame.encode_ms"].Value + r.metrics["client.decode_ms"].Value
	r.setLayer("unattributed_ms", e2e-named)
	r.zeroLayers()
	return nil
}

// decompose runs one op's layers one at a time, each timed from outside:
// catalog load, cold solve, execute, collect, every derivation step, the
// NDJSON encode, a write, a warm plan hit, a raw query (time to first byte,
// transfer, server elapsed), and the client decode of the captured body.
// Answers are checked as in the closed loop.
func (b *serveBench) decompose(r *run, s samples, write string) (rejected int64, err error) {
	tr := r.spans
	op := b.nextOp()
	root := tr.begin(op, 0, "serve.decompose")
	defer tr.end(root)
	r.attempt()
	// failed ends the decomposition on a failed HTTP call, counting it and
	// noting whether the server shed it.
	failed := func(what string, err error) (int64, error) {
		r.fail("%s: %v", what, err)
		var he *server.HTTPError
		if errors.As(err, &he) && he.Rejected() {
			return 1, nil
		}
		return 0, nil
	}

	var store *server.Store
	d := tr.timed(op, root, "catalog.load", func() { store, err = loadStore(b.in.Dir) })
	if err != nil {
		return 0, err
	}
	s.add("catalog.load_ms", ms(d))
	s.add("catalog.input_rows", float64(sumRows(b.in.Rows)))
	s.add("catalog.input_bytes", float64(b.in.Bytes))

	rc := rdd.NewContext(0)
	cat, schemas, _ := store.Snapshot(rc, true)
	plan, hits, d, err := timedSolve(tr, op, root, schemas, bench.Fig5Query())
	if err != nil {
		return 0, err
	}
	s.add("engine.solve_us", float64(d.Microseconds()))
	s.add("engine.memo_hits", float64(hits))

	frames, _, dExec, dCol, err := execCollect(rc, plan, cat, tr, op, root)
	if err != nil {
		return 0, err
	}
	s.add("pipeline.execute_ms", ms(dExec))
	s.add("rdd.collect_ms", ms(dCol))
	s.add("rdd.collect_rows", float64(frameRows(frames)))
	if n := frameRows(frames); n != b.ref.N {
		r.fail("local execute: %d rows, want %d", n, b.ref.N)
	}
	steps, err := runSteps(rc, plan, cat, tr, op, root)
	if err != nil {
		return 0, err
	}
	s.addSteps(steps)

	var encoded int64
	d = tr.timed(op, root, "frame.encode", func() { encoded = encodeNDJSON(frames) })
	s.add("frame.encode_ms", ms(d))
	s.add("frame.encode_bytes", float64(encoded))

	d = tr.timed(op, root, "server.write", func() { err = b.register(write) })
	if err != nil {
		return failed("write", err)
	}
	s.add("server.write_ms", ms(d))
	if _, err := b.cl.Plan(fig5Request()); err != nil { // re-plan after the write
		return failed("plan", err)
	}
	var pr server.PlanResponse
	d = tr.timed(op, root, "server.plan_hit", func() { pr, err = b.cl.Plan(fig5Request()) })
	if err != nil {
		return failed("warm plan", err)
	}
	if !pr.CacheHit {
		r.fail("warm plan: not served from the plan cache")
	}
	s.add("server.plan_hit_us", float64(d.Microseconds()))

	q := tr.begin(op, root, "server.query")
	raw, ttfb, transfer, err := b.rawQuery()
	tr.end(q)
	if err != nil {
		return failed("raw query", err)
	}
	s.add("server.ttfb_ms", ms(ttfb))
	s.add("client.transfer_ms", ms(transfer))
	s.add("server.body_bytes", float64(len(raw)))

	replay := &server.Client{BaseURL: "http://replay", HTTP: &http.Client{Transport: replayBody(raw)}}
	var h server.StreamHeader
	var rows []value.Row
	var t server.StreamTrailer
	d = tr.timed(op, root, "client.decode", func() { h, rows, t, err = replay.Query(fig5Request()) })
	if err != nil {
		return failed("decode", err)
	}
	s.add("client.decode_ms", ms(d))
	s.add("server.elapsed_ms", float64(t.ElapsedMicros)/1000)
	if err := b.checkQuery(h, rows, t); err != nil {
		r.fail("decomposed query: %v", err)
	}
	return 0, nil
}

func sumRows(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// encodeNDJSON renders result rows as the server's stream body lines, the
// way the server's frame path does: one reused line buffer per row through
// frame.AppendRowJSON, an empty row as the bare "{}" line, each line
// written out. It returns the bytes written.
func encodeNDJSON(frames []*frame.Frame) int64 {
	var n int64
	var line []byte
	for _, f := range frames {
		keys := f.EncodedKeys()
		for i := 0; i < f.NumRows(); i++ {
			line = append(line[:0], `{"row":`...)
			line = f.AppendRowJSON(line, i, keys)
			if len(line) == len(`{"row":{}`) {
				line = append(line[:0], "{}\n"...)
			} else {
				line = append(line, "}\n"...)
			}
			w, _ := io.Discard.Write(line)
			n += int64(w)
		}
	}
	return n
}

// rawQuery posts the Fig-5 query over plain net/http and returns the body
// with the time to the first response byte and the transfer time after it.
func (b *serveBench) rawQuery() ([]byte, time.Duration, time.Duration, error) {
	data, err := json.Marshal(fig5Request())
	if err != nil {
		return nil, 0, 0, err
	}
	var first time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.cl.BaseURL+"/v1/query", bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := b.cl.HTTP.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	end := time.Now()
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, &server.HTTPError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	}
	return body, first.Sub(start), end.Sub(first), nil
}

// replayBody is an in-memory RoundTripper answering every request with one
// captured /v1/query body, so client decode is timed without the network.
type replayBody []byte

func (rb replayBody) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		Status:        "200 OK",
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:          io.NopCloser(bytes.NewReader(rb)),
		ContentLength: int64(len(rb)),
		Request:       req,
	}, nil
}
