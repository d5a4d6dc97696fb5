package main

import (
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory. Spans are recorded from
// outside the program — around calls into each module's public functions —
// so the system under test carries no benchmark instrumentation. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = an op root
	Op     int64         `json:"op"`     // shared by every span of one op
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// timed runs f under a span and returns the span's duration.
func (t *tracer) timed(op int64, parent int, name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := t.begin(op, parent, name)
	f()
	return t.end(id)
}

// layerSelf aggregates one span name: how often it ran and its self time
// (duration minus its children's).
type layerSelf struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"self_total_ms"`
	P50Ms   float64 `json:"self_p50_ms"`
}

type spanRecord struct {
	span
	SelfNs time.Duration `json:"self_ns"`
}

type spanArtifact struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Spans    []spanRecord         `json:"spans"`
	Layers   map[string]layerSelf `json:"layers"`
}

// artifact renders every span with its self time, plus per-name rollups.
func (t *tracer) artifact(workload string, seed int64) spanArtifact {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	art := spanArtifact{Workload: workload, Seed: seed, Layers: map[string]layerSelf{}}
	selves := map[string][]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		art.Spans = append(art.Spans, spanRecord{span: s, SelfNs: self})
		selves[s.Name] = append(selves[s.Name], ms(self))
	}
	names := make([]string, 0, len(selves))
	for n := range selves {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var total float64
		for _, v := range selves[n] {
			total += v
		}
		art.Layers[n] = layerSelf{Count: len(selves[n]), TotalMs: total, P50Ms: median(selves[n])}
	}
	return art
}
