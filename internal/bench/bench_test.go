package bench

import (
	"strings"
	"testing"

	"scrubjay/internal/rdd"
)

func smallWorkload(rows int) JoinWorkload {
	w := DefaultJoinWorkload()
	w.Rows = rows
	w.Partitions = 8
	w.Workers = 2
	return w
}

func TestRunNaturalJoin(t *testing.T) {
	res, err := RunNaturalJoin(smallWorkload(5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRows != 5000 {
		t.Errorf("output rows = %d, want 5000 (1:1 keys)", res.OutputRows)
	}
	if res.Simulated(10) <= 0 || res.Wall <= 0 {
		t.Error("non-positive timings")
	}
	if res.Simulated(1) < res.Simulated(10) {
		t.Error("1-node simulation should not beat 10-node")
	}
}

func TestRunInterpJoin(t *testing.T) {
	res, err := RunInterpJoin(smallWorkload(4096))
	if err != nil {
		t.Fatal(err)
	}
	// Every left row has right samples within the 2s window (offset 0.5s),
	// so the output has at least one row per left row.
	if res.OutputRows < int64(res.Rows)*9/10 {
		t.Errorf("output rows = %d, want close to %d", res.OutputRows, res.Rows)
	}
}

func TestNaiveInterpJoinAgreesOnOutputScale(t *testing.T) {
	w := smallWorkload(2048)
	fast, err := RunInterpJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaiveInterpJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	// The naive baseline emits one row per matched left row; the real join
	// may split by residual groups (none here), so counts should be close.
	diff := fast.OutputRows - naive.OutputRows
	if diff < 0 {
		diff = -diff
	}
	if diff > fast.OutputRows/5 {
		t.Errorf("naive=%d vs binned=%d outputs diverge", naive.OutputRows, fast.OutputRows)
	}
}

func TestRowSweep(t *testing.T) {
	s := RowSweep(1000, 10000)
	if len(s) != 10 || s[0] != 1000 || s[9] != 10000 {
		t.Errorf("sweep = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("sweep not increasing: %v", s)
		}
	}
	if RowSweep(-5, -10)[0] != 1 {
		t.Error("degenerate sweep should clamp")
	}
}

func TestFig3RowsLinearShape(t *testing.T) {
	w := smallWorkload(0)
	// The simulated makespan carries a fixed ShuffleLatency per shuffle
	// stage whatever the row count; record each point's shuffle stages so
	// the shape check can take that model constant out.
	shuffles := map[int]int{}
	run := func(w JoinWorkload) (JoinRunResult, error) {
		res, err := RunNaturalJoin(w)
		n := 0
		for _, st := range res.Metrics.Stages {
			if st.Shuffle {
				n++
			}
		}
		shuffles[w.Rows] = n
		return res, err
	}
	s, err := Fig3Rows("fig3a", run, w, RowSweep(4000, 40000), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 10 {
		t.Fatalf("points = %d", len(s.X))
	}
	// Time grows with rows; the per-row cost at 40k stays within a loose
	// factor of the cost at 4k. Measured on the makespan minus the fixed
	// shuffle latency: with it in, a fast host shrinks the row-dependent
	// part until the ratio measures host speed rather than linearity.
	if s.Y[9] <= s.Y[0] {
		t.Errorf("time should grow with rows: %v", s.Y)
	}
	latency := rdd.PaperCluster(10).ShuffleLatency.Seconds()
	work := Series{}
	for i, x := range s.X {
		work.Add(x, s.Y[i]-latency*float64(shuffles[int(x)]))
	}
	if !work.RoughlyLinear(8) {
		t.Errorf("natural join should be roughly linear in rows: %v (less shuffle latency: %v)", s.Y, work.Y)
	}
}

func TestFig3ScalingShape(t *testing.T) {
	s, err := Fig3Scaling("fig3b", RunNaturalJoin, smallWorkload(40000))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 10 {
		t.Fatalf("points = %d", len(s.X))
	}
	if !s.Monotone(0.01) {
		t.Errorf("strong scaling should be non-increasing: %v", s.Y)
	}
	if s.Y[9] >= s.Y[0] {
		t.Errorf("10 nodes should beat 1 node: %v", s.Y)
	}
}

func TestInterpJoinCostlierThanNatural(t *testing.T) {
	// Figure 3: at equal rows the interpolation join is roughly an order
	// of magnitude more expensive than the natural join.
	w := smallWorkload(30000)
	nj, err := RunNaturalJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	ij, err := RunInterpJoin(w)
	if err != nil {
		t.Fatal(err)
	}
	if ij.Metrics.TotalTaskTime() <= nj.Metrics.TotalTaskTime() {
		t.Errorf("interp join should cost more: %v vs %v",
			ij.Metrics.TotalTaskTime(), nj.Metrics.TotalTaskTime())
	}
}

func TestRunFig5Plan(t *testing.T) {
	res, err := RunFig5Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper {
		t.Errorf("Figure 5 plan mismatch:\n%s", res.Plan)
	}
	if res.SolveDuration <= 0 {
		t.Error("solve duration missing")
	}
}

func TestRunFig7Plan(t *testing.T) {
	res, err := RunFig7Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper {
		t.Errorf("Figure 7 plan mismatch:\n%s", res.Plan)
	}
}

func smallCaseStudy() CaseStudyConfig {
	cfg := DefaultCaseStudyConfig()
	cfg.Racks = 6
	cfg.NodesPerRack = 12
	cfg.AMGRack = 3
	cfg.DAT1DurationSec = 3600
	cfg.DAT2RunSec = 120
	cfg.DAT2GapSec = 30
	cfg.Workers = 2
	cfg.Partitions = 8
	return cfg
}

func TestRunFig4FindsAMGOutlier(t *testing.T) {
	cfg := smallCaseStudy()
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinedRows == 0 {
		t.Fatal("no joined rows")
	}
	if res.HottestApp != "AMG" {
		t.Errorf("hottest app = %q, want AMG (heat by rack/app: %v)", res.HottestApp, res.HeatByRackApp)
	}
	if res.HottestRack != "rack03" {
		t.Errorf("hottest rack = %q, want rack03", res.HottestRack)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	for _, p := range res.Profiles {
		if len(p.X) < 5 {
			t.Errorf("profile %s too short: %d points", p.Label, len(p.X))
		}
		// AMG ramps: the late heat exceeds the early heat.
		early := p.Y[1]
		late := p.Y[len(p.Y)-2]
		if late <= early {
			t.Errorf("profile %s should ramp: early=%v late=%v", p.Label, early, late)
		}
	}
}

func TestRunFig6ThrottlingContrast(t *testing.T) {
	cfg := smallCaseStudy()
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinedRows == 0 {
		t.Fatal("no joined rows")
	}
	if len(res.Runs) != 6 {
		t.Fatalf("runs = %v", res.Runs)
	}
	mean := func(run, metric string) float64 { return res.PerRunMeans[run][metric] }
	mg := res.Runs[0]  // 1:mg.C
	p95 := res.Runs[3] // 4:prime95
	// mg.C runs at (near) base frequency; prime95 throttles aggressively.
	if mean(mg, "active_frequency") <= mean(p95, "active_frequency") {
		t.Errorf("mg.C frequency %v should exceed prime95 %v",
			mean(mg, "active_frequency"), mean(p95, "active_frequency"))
	}
	// prime95 issues instructions faster.
	if mean(p95, "instructions_rate") <= mean(mg, "instructions_rate") {
		t.Errorf("prime95 instruction rate %v should exceed mg.C %v",
			mean(p95, "instructions_rate"), mean(mg, "instructions_rate"))
	}
	// mg.C moves far more memory.
	if mean(mg, "mem_reads_rate") <= 2*mean(p95, "mem_reads_rate") {
		t.Errorf("mg.C memory rate %v should dominate prime95 %v",
			mean(mg, "mem_reads_rate"), mean(p95, "mem_reads_rate"))
	}
	// prime95 runs hotter: smaller thermal margin.
	if mean(p95, "thermal_margin") >= mean(mg, "thermal_margin") {
		t.Errorf("prime95 margin %v should be below mg.C %v",
			mean(p95, "thermal_margin"), mean(mg, "thermal_margin"))
	}
	for _, m := range Fig6MetricColumns() {
		if len(res.Series[seriesNameFor(m)].X) == 0 && len(res.Series[m].X) == 0 {
			t.Errorf("series %s empty", m)
		}
	}
}

// seriesNameFor maps a result column back to its series key (identity in
// the current metric set).
func seriesNameFor(col string) string { return col }

func TestEngineLatencyInteractive(t *testing.T) {
	s, err := EngineLatency([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.X {
		if s.Y[i] > 2000 {
			t.Errorf("solve at %v datasets took %vms; not interactive", s.X[i], s.Y[i])
		}
	}
}

func TestMemoAblation(t *testing.T) {
	res, err := RunMemoAblation(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoHits == 0 {
		t.Error("memoized engine should record hits")
	}
	if res.WithMemo <= 0 || res.WithoutMemo <= 0 {
		t.Error("durations missing")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "l", XLabel: "x", YLabel: "y"}
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(4, 41)
	var b strings.Builder
	s.Print(&b)
	if !strings.Contains(b.String(), "# l") || !strings.Contains(b.String(), "41") {
		t.Errorf("Print output: %s", b.String())
	}
	if !s.RoughlyLinear(1.5) {
		t.Error("series is roughly linear")
	}
	if s.Monotone(0) {
		t.Error("increasing series is not monotone-decreasing")
	}
	down := Series{X: []float64{1, 2, 3}, Y: []float64{9, 5, 5.01}}
	if !down.Monotone(0.01) {
		t.Error("slack should allow tiny increases")
	}
	if sp := s.Sparkline(3); len([]rune(sp)) != 3 {
		t.Errorf("sparkline = %q", sp)
	}
	if (&Series{}).Sparkline(5) != "" {
		t.Error("empty sparkline")
	}
}
