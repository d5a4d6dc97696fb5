package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// scale sizes the generated inputs; the smoke test passes a tiny one.
type scale struct {
	Name                     string
	Racks, NodesPerRack, AMG int
	DAT1Seconds              int64
	DAT2RunSec, DAT2GapSec   int64
	SetupReps                int // fresh set-ups timed for setup_s (serve, dist)
	BatchSetupReps           int // catalog loads timed for setup_s (batch)
}

// fullScale is the benchmark's: the §7 case-study sizes.
var fullScale = scale{Name: "full", Racks: 8, NodesPerRack: 16, AMG: 2, DAT1Seconds: 3600,
	DAT2RunSec: 300, DAT2GapSec: 60, SetupReps: 15, BatchSetupReps: 5}

// endToEnd are the metrics of a -trace 0 run, on every workload.
var endToEnd = []string{"query_p50_ms", "throughput_qps", "cpu_ms_per_query", "peak_rss_mb", "setup_s"}

// fig5Steps and fig7Steps name the per-step derive metrics: the plan's
// derivations in execution order, with derive_rate told apart by its
// source dataset.
var (
	fig5Steps = []string{"explode_discrete", "explode_continuous", "natural_join", "derive_heat", "interpolation_join"}
	fig7Steps = []string{"derive_rate_ipmi", "derive_rate_papi", "natural_join", "derive_active_frequency", "interpolation_join"}
)

// layerUnits gives every per-layer metric its unit. A -trace 1 run reports
// all of them; a layer that does no work in a workload reports 0 there (see
// README.md for which workload exercises which layer).
var layerUnits = map[string]string{
	"catalog.load_ms":         "ms",
	"catalog.input_rows":      "count",
	"catalog.input_bytes":     "bytes",
	"wrappers.write_ms":       "ms",
	"engine.solve_us":         "us",
	"engine.memo_hits":        "count",
	"pipeline.execute_ms":     "ms",
	"rdd.collect_ms":          "ms",
	"rdd.collect_rows":        "count",
	"frame.encode_ms":         "ms",
	"frame.encode_bytes":      "bytes",
	"server.elapsed_ms":       "ms",
	"server.ttfb_ms":          "ms",
	"server.body_bytes":       "bytes",
	"server.plan_hit_us":      "us",
	"server.write_ms":         "ms",
	"server.rejected":         "count",
	"client.decode_ms":        "ms",
	"client.transfer_ms":      "ms",
	"cluster.exchanges":       "count",
	"cluster.exchange_ms":     "ms",
	"cluster.exchange_p50_ms": "ms",
	"cluster.bytes_in":        "bytes",
	"cluster.bytes_out":       "bytes",
	"cluster.retries":         "count",
	"cluster.stragglers":      "count",
	"dist.codec_ms":           "ms",
	"cli.residual_ms":         "ms",
	"unattributed_ms":         "ms",
	"trace.overhead_ms":       "ms",
}

// perLayer is the sorted list of every -trace 1 metric.
var perLayer = func() []string {
	seen := map[string]bool{}
	for _, s := range append(append([]string{}, fig5Steps...), fig7Steps...) {
		if !seen[s] {
			seen[s] = true
			layerUnits["derive."+s+"_ms"] = "ms"
			layerUnits["derive."+s+"_rows_out"] = "count"
		}
	}
	names := make([]string, 0, len(layerUnits))
	for n := range layerUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}()

// setLayer records a per-layer metric with its registered unit.
func (r *run) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unregistered layer metric " + name)
	}
	r.set(name, v, unit)
}

// zeroLayers reports 0 for every per-layer metric not yet set: layers the
// workload's op never enters.
func (r *run) zeroLayers() {
	for _, name := range perLayer {
		if _, ok := r.metrics[name]; !ok {
			r.setLayer(name, 0)
		}
	}
}

// dist summarizes kept samples with exact order statistics (nearest rank),
// so no quantile can exceed the observed max.
type dist struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Max  float64 `json:"max"`
	Tail int     `json:"beyond_p90"` // samples strictly after the p90 rank
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		return max(0, min(i, len(s)-1))
	}
	r90 := rank(0.9)
	return dist{N: len(s), P50: s[rank(0.5)], P90: s[r90], Max: s[len(s)-1], Tail: len(s) - 1 - r90}
}

func (d dist) ordered() bool { return d.P50 <= d.P90 && d.P90 <= d.Max }

// String prints p90 only when at least ten samples lie beyond it.
func (d dist) String() string {
	p90 := "p90=n/a"
	if d.Tail >= 10 {
		p90 = fmt.Sprintf("p90=%.4g", d.P90)
	}
	return fmt.Sprintf("n=%d p50=%.4g %s max=%.4g", d.N, d.P50, p90, d.Max)
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// harnessCPU runs f on one locked OS thread and returns that thread's CPU
// time: the cost of the benchmark's own answer checks, which is taken out
// of cpu_ms_per_query because it is not the system's work.
func harnessCPU(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var a, b syscall.Rusage
	syscall.Getrusage(rusageThread, &a)
	f()
	syscall.Getrusage(rusageThread, &b)
	return tv(b.Utime) + tv(b.Stime) - tv(a.Utime) - tv(a.Stime)
}

// digest is an order-insensitive fingerprint of a multiset of encoded
// rows: the row count and the wrapping sum of each row's mixed FNV-64a.
type digest struct {
	N   int64
	Sum uint64
}

func (d *digest) add(b []byte) {
	h := fnv.New64a()
	h.Write(b)
	x := h.Sum64()
	// splitmix64 finalizer spreads FNV's low-entropy high bits before
	// summing.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.Sum += x
	d.N++
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x", d.N, d.Sum) }
