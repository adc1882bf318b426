package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"dlm/internal/baseline"
	"dlm/internal/core"
	"dlm/internal/experiments"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

func TestWrapperForwardsParallelManagerExactly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner overlay.Manager
	}{
		{"dlm", core.NewManager(core.DefaultParams())},
		{"nop", overlay.NopManager{}},
		{"preconfigured", &baseline.Preconfigured{Threshold: 1}},
	} {
		_, innerPar := tc.inner.(overlay.ParallelManager)
		_, wrapPar := wrapManager(tc.inner, newTracer()).(overlay.ParallelManager)
		if innerPar != wrapPar {
			t.Errorf("%s: inner ParallelManager=%v, wrapper=%v", tc.name, innerPar, wrapPar)
		}
	}
	var dlmMgr overlay.Manager = core.NewManager(core.DefaultParams())
	if _, ok := dlmMgr.(overlay.ParallelManager); !ok {
		t.Fatal("core.Manager no longer implements ParallelManager; the batched path is untested")
	}
}

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000},
		{199, 9000}, {200, 9500}, {300, 9500}, {999, 9500}, {1000, 9900},
		{9000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := highestPercentile(tc.n); p > 0 && tc.n-rank(p, tc.n) < minTail {
			t.Errorf("n=%d: p%d leaves %d samples beyond", tc.n, p, tc.n-rank(p, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 300)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if got := percentile(s, 5000); got != 150 {
		t.Errorf("p50 = %v, want 150", got)
	}
	if got := percentile(s, 9500); got != 285 {
		t.Errorf("p95 = %v, want 285", got)
	}
	if s[0] != 300 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// fakeClock returns a tracer whose clock reads *now.
func fakeClock(now *int64) *tracer {
	tr := newTracer()
	tr.clock = func() int64 { return *now }
	return tr
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	var now int64
	tr := fakeClock(&now)
	at := func(v int64) { now = v }
	// sim [0,100] ⊃ overlay.tick [10,90] ⊃ core.tick [20,80] ⊃
	// core.handle [30,50], then a second handle [60,65] in the same tick.
	at(0)
	tr.begin(spanSim)
	at(10)
	tr.begin(spanOverlayTick)
	at(20)
	tr.begin(spanCoreTick)
	at(30)
	tr.begin(spanCoreHandle)
	at(50)
	tr.end()
	at(60)
	tr.begin(spanCoreHandle)
	at(65)
	tr.end()
	at(80)
	tr.end()
	at(90)
	tr.end()
	at(100)
	tr.end()

	for _, tc := range []struct {
		id          spanID
		self, total int64
		calls       int64
	}{
		{spanCoreHandle, 25, 25, 2},
		{spanCoreTick, 35, 60, 1},
		{spanOverlayTick, 20, 80, 1},
		{spanSim, 20, 100, 1},
	} {
		got := tr.spans[tc.id]
		if got.self != tc.self || got.total != tc.total || got.calls != tc.calls {
			t.Errorf("span %d: got %+v, want self %d total %d calls %d", tc.id, got, tc.self, tc.total, tc.calls)
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("stack not empty: %v", tr.stack)
	}
}

func TestLaneSpansCountOnceAsWallAndFullyAsCPU(t *testing.T) {
	var now int64
	tr := fakeClock(&now)
	tr.begin(spanSim)
	// Two lanes in parallel: [40,60] and [50,70] overlap; lane 3 runs
	// [80,85] later in the unit.
	tr.laneSpan(0, 40, 60)
	tr.laneSpan(1, 50, 70)
	tr.laneSpan(3, 80, 85)
	now = 100
	tr.end()
	if tr.laneWall != 35 {
		t.Errorf("lane wall = %d, want 35", tr.laneWall)
	}
	if calls, cpu := tr.laneTotals(); calls != 3 || cpu != 45 {
		t.Errorf("lane totals = %d calls, %d cpu; want 3, 45", calls, cpu)
	}
	if got := tr.spans[spanSim].self; got != 65 {
		t.Errorf("sim self = %d, want 65", got)
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{5, 10}, {0, 3}}, 8},
		{[]interval{{0, 10}, {2, 4}, {9, 12}}, 12},
		{[]interval{{0, 5}, {5, 7}}, 7},
	} {
		if got := unionLength(slices.Clone(tc.ivs)); got != tc.want {
			t.Errorf("unionLength(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestNormalisation(t *testing.T) {
	if got := peerUnitsPerSec(100000, 300, 10); got != 3e6 {
		t.Errorf("peerUnitsPerSec = %v, want 3e6", got)
	}
	if got := nsPerEvent(1.5, 3000000); math.Abs(got-500) > 1e-9 {
		t.Errorf("nsPerEvent = %v, want 500", got)
	}
	if got := perPeerUnit(600, 100, 3); got != 2 {
		t.Errorf("perPeerUnit = %v, want 2", got)
	}
	if got := ratioErrPct([]float64{9, 11, 10}, 10); math.Abs(got-100*0.2/3) > 1e-12 {
		t.Errorf("ratioErrPct = %v, want %v", got, 100*0.2/3)
	}
}

func TestAnotherRepetition(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	for _, tc := range []struct {
		reps          int
		elapsed, last float64
		want          bool
	}{
		{0, 0, 0, true},
		{1, 100, 100, true}, // below minReps, whatever the time
		{2, 15, 15, true},   // a third ends at 30 s
		{2, 15.5, 15.5, false},
		{3, 20, 5, true},
		{3, 26, 5, false},
	} {
		if got := another(tc.reps, sec(tc.elapsed), sec(tc.last), 30); got != tc.want {
			t.Errorf("another(%d, %vs, %vs, 30) = %v, want %v", tc.reps, tc.elapsed, tc.last, got, tc.want)
		}
	}
}

// TestDriverReproducesRunOn checks, at a small population, that each
// single-run workload's driver produces exactly experiments.RunOn's
// simulated output, traced and untraced.
func TestDriverReproducesRunOn(t *testing.T) {
	for _, s := range singleSpecs {
		s.n = 2000
		if s.queryRate > 0 {
			// With no warm-up the benchmark's query ticker runs on
			// query.Driver's schedule, from the first unit.
			s.warmup = 0
		}
		t.Run(s.name, func(t *testing.T) {
			sc := s.scenario(3)
			eng := sim.NewEngine(0)
			res, err := experiments.RunOn(eng, experiments.RunConfig{
				Scenario: sc,
				Manager:  experiments.ManagerDLM,
				Shards:   2,
				Queries:  s.queryRate > 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint{
				Events:        eng.EventsFired(),
				LaneEvents:    eng.LaneEventsFired(),
				Batches:       eng.BatchesFired(),
				Supers:        res.Final.NumSupers,
				Ratio:         res.Final.Ratio,
				Traffic:       res.Traffic,
				Counters:      res.WindowCounters,
				Retries:       res.RequestRetries,
				Drops:         res.RequestDrops,
				QueriesIssued: res.QueriesIssued,
			}
			for _, traced := range []bool{false, true} {
				r, err := runSingle(s, 3, 2, traced, false)
				if err != nil {
					t.Fatal(err)
				}
				got := r.fp
				if s.queryRate > 0 {
					if math.Abs(float64(got.QueriesFound)/float64(got.QueriesIssued)-res.QuerySuccess) > 1e-12 {
						t.Errorf("traced=%v: query success %d/%d, RunOn %v", traced, got.QueriesFound, got.QueriesIssued, res.QuerySuccess)
					}
				}
				got.QueriesFound = 0
				if got != want {
					t.Errorf("traced=%v: fingerprint\n got %+v\nwant %+v", traced, got, want)
				}
				if len(r.invariants) != 0 {
					t.Errorf("traced=%v: invariants %v", traced, r.invariants)
				}
				if traced && (r.obs.unpaired != 0 || len(r.tr.stack) != 0) {
					t.Errorf("unpaired joins %d, open spans %d", r.obs.unpaired, len(r.tr.stack))
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, workloadNames())
	}
	same := func(kind string, json []struct{ Name, Unit string }, code []metricDef) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(json), len(code))
			return
		}
		for i := range code {
			if json[i].Name != code[i].name || json[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, json[i].Name, json[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestStealShareFromProcStat(t *testing.T) {
	a := parseCPULine("cpu  177358 0 7148 329250 211 0 1202 3019 0 0")
	b := parseCPULine("cpu  177858 0 7248 329550 211 0 1202 3119 0 0")
	if a.total != 177358+7148+329250+211+1202+3019 || a.steal != 3019 {
		t.Fatalf("parsed %+v", a)
	}
	if got := stealShare(a, b); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.1", got)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8"} {
		if got := parseCPULine(bad); got != (cpuTicks{}) {
			t.Errorf("parseCPULine(%q) = %+v, want zero", bad, got)
		}
	}
	if got := stealShare(b, a); got != 0 {
		t.Errorf("stealShare backwards = %v, want 0", got)
	}
}
