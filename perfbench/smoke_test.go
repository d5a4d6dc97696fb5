package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json to what the program reports:
// the same workloads, and the same metric names with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, listed []benchMetric, names []string, unit func(string) string) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(names))
		}
		for _, n := range names {
			u, ok := got[n]
			if !ok {
				t.Errorf("%s: %s missing from BENCHMARK.json", kind, n)
			} else if u != unit(n) {
				t.Errorf("%s: %s unit %q in BENCHMARK.json, program reports %q", kind, n, u, unit(n))
			}
		}
	}
	e2eUnits := map[string]string{"query_p50_ms": "ms", "throughput_qps": "1/s", "cpu_ms_per_query": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
	check("end_to_end", bf.EndToEnd, endToEnd, func(n string) string { return e2eUnits[n] })
	check("per_layer", bf.PerLayer, perLayer, func(n string) string { return layerUnits[n] })
}

// tinyScale keeps each smoke set-up and op to a fraction of a second.
var tinyScale = scale{Name: "tiny", Racks: 2, NodesPerRack: 4, AMG: 1, DAT1Seconds: 600,
	DAT2RunSec: 60, DAT2GapSec: 20, SetupReps: 2, BatchSetupReps: 1}

// TestSmoke runs every workload at tiny scale in both modes and fails if an
// op fails its check or any metric named in BENCHMARK.json is missing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI and runs every workload")
	}
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	cli := filepath.Join(dir, "scrubjay")
	if out, err := exec.Command("go", "build", "-o", cli, "scrubjay/cmd/scrubjay").CombinedOutput(); err != nil {
		t.Fatalf("building the CLI: %v\n%s", err, out)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{Workload: w.Name, Seed: 3, Seconds: 1, Trace: trace, CLI: cli,
				Out: filepath.Join(dir, "out"), Scale: tinyScale}
			res, rep, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, rep.Checks)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}
