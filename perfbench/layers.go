package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/engine"
	"scrubjay/internal/frame"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/server"
	"scrubjay/internal/value"
)

// loadStore is the catalog layer on serve and dist: the daemon's own load,
// server.Store.LoadDir, which decodes every dataset through its wrapper and
// builds the columnar frames every snapshot serves.
func loadStore(dir string) (*server.Store, error) {
	st := server.NewStore()
	return st, st.LoadDir(dir, 0)
}

// solve is the engine layer: a cold plan search.
func solve(schemas map[string]semantics.Schema, q engine.Query) (*pipeline.Plan, int, error) {
	e := engine.New(semantics.DefaultDictionary(), schemas, engine.DefaultOptions())
	plan, err := e.Solve(context.Background(), q)
	return plan, e.MemoHits(), err
}

// timedSolve is solve under an engine.solve span.
func timedSolve(tr *tracer, op int64, parent int, schemas map[string]semantics.Schema, q engine.Query) (plan *pipeline.Plan, hits int, d time.Duration, err error) {
	d = tr.timed(op, parent, "engine.solve", func() { plan, hits, err = solve(schemas, q) })
	return plan, hits, d, err
}

// execCollect runs pipeline.Execute and the final frame collect, timing
// each. Errors surfacing as rdd panics (cancel, exchange failure) come back
// as errors.
func execCollect(rc *rdd.Context, plan *pipeline.Plan, cat pipeline.Catalog, tr *tracer, op int64, parent int) ([]*frame.Frame, semantics.Schema, time.Duration, time.Duration, error) {
	var ds *dataset.Dataset
	var err error
	dExec := tr.timed(op, parent, "pipeline.execute", func() {
		ds, err = pipeline.Execute(context.Background(), rc, plan, cat, semantics.DefaultDictionary(), pipeline.ExecOptions{})
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var frames []*frame.Frame
	dCollect := tr.timed(op, parent, "rdd.collect", func() {
		frames, err = rdd.Guard(func() []*frame.Frame { return ds.Frames().Collect() })
	})
	return frames, ds.Schema(), dExec, dCollect, err
}

func frameRows(frames []*frame.Frame) int64 {
	var n int64
	for _, f := range frames {
		n += int64(f.NumRows())
	}
	return n
}

// digestFrames fingerprints a result by its row JSON, rendered the way the
// server streams it (frame.AppendRowJSON).
func digestFrames(frames []*frame.Frame) digest {
	var d digest
	var buf []byte
	for _, f := range frames {
		keys := f.EncodedKeys()
		for i := 0; i < f.NumRows(); i++ {
			buf = f.AppendRowJSON(buf[:0], i, keys)
			d.add(buf)
		}
	}
	return d
}

// digestRows fingerprints decoded rows by their canonical (sorted-column,
// kind-tagged) binary encoding — the same content as the kind-tagged row
// JSON they were decoded from, without re-running encoding/json.
func digestRows(rows []value.Row) digest {
	var d digest
	var buf []byte
	for _, r := range rows {
		buf = r.AppendBinary(buf[:0])
		d.add(buf)
	}
	return d
}

// stepTiming is one plan node run alone.
type stepTiming struct {
	Name string
	D    time.Duration
	Rows int64
}

// stepName names a derivation node for the derive.<step> metrics;
// derive_rate appears twice in Fig-7 and is told apart by its source.
func stepName(n *pipeline.Node) string {
	if n.Derivation != "derive_rate" {
		return n.Derivation
	}
	src := n
	for src.Kind != pipeline.KindSource && len(src.Inputs) > 0 {
		src = src.Inputs[0]
	}
	return n.Derivation + "_" + src.Dataset
}

// runSteps is the derive layer: every derivation node of the plan runs
// alone, in execution order, over frames materialised from its inputs, and
// is timed through its apply plus the collect of its output.
func runSteps(rc *rdd.Context, plan *pipeline.Plan, cat pipeline.Catalog, tr *tracer, op int64, parent int) ([]stepTiming, error) {
	dict := semantics.DefaultDictionary()
	var out []stepTiming
	var walk func(n *pipeline.Node) (*dataset.Dataset, error)
	walk = func(n *pipeline.Node) (*dataset.Dataset, error) {
		if n.Kind == pipeline.KindSource {
			ds, ok := cat[n.Dataset]
			if !ok {
				return nil, fmt.Errorf("catalog has no dataset %q", n.Dataset)
			}
			frames, err := rdd.Guard(func() []*frame.Frame { return ds.Frames().Collect() })
			if err != nil {
				return nil, err
			}
			return dataset.FromFrames(rc, n.Dataset, frames, ds.Schema()), nil
		}
		ins := make([]*dataset.Dataset, len(n.Inputs))
		for i, in := range n.Inputs {
			ds, err := walk(in)
			if err != nil {
				return nil, err
			}
			ins[i] = ds
		}
		var apply func() (*dataset.Dataset, error)
		switch n.Kind {
		case pipeline.KindTransform:
			t, err := derive.NewTransformation(n.Derivation, n.Params)
			if err != nil {
				return nil, err
			}
			apply = func() (*dataset.Dataset, error) { return t.Apply(ins[0], dict) }
		case pipeline.KindCombine:
			c, err := derive.NewCombination(n.Derivation, n.Params)
			if err != nil {
				return nil, err
			}
			apply = func() (*dataset.Dataset, error) { return c.Apply(ins[0], ins[1], dict) }
		default:
			return nil, fmt.Errorf("unknown node kind %q", n.Kind)
		}
		name := stepName(n)
		var res *dataset.Dataset
		var frames []*frame.Frame
		var err error
		d := tr.timed(op, parent, "derive."+name, func() {
			if res, err = apply(); err == nil {
				frames, err = rdd.Guard(func() []*frame.Frame { return res.Frames().Collect() })
			}
		})
		if err != nil {
			return nil, fmt.Errorf("step %s: %w", name, err)
		}
		out = append(out, stepTiming{Name: name, D: d, Rows: frameRows(frames)})
		return dataset.FromFrames(rc, name, frames, res.Schema()), nil
	}
	_, err := walk(plan.Root)
	return out, err
}

// samples collects named per-op observations of the traced decomposition.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// setMedians reports the median of every kept layer sample as a per-layer
// metric, keeping each distribution in the run's report.
func (s samples) setMedians(r *run) {
	for name, xs := range s {
		r.setLayer(name, r.keep(name, xs).P50)
	}
}

// addSteps records one decomposition's per-step timings and row counts.
func (s samples) addSteps(steps []stepTiming) {
	for _, st := range steps {
		s.add("derive."+st.Name+"_ms", ms(st.D))
		s.add("derive."+st.Name+"_rows_out", float64(st.Rows))
	}
}

// checkSteps verifies a plan's derivation sequence against the paper's.
func checkSteps(r *run, what string, got, want []string) {
	if !slices.Equal(got, want) {
		r.fail("%s: plan steps %v, want %v", what, got, want)
	}
}
