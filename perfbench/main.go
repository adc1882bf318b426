// Command perfbench is the repository's benchmark. It runs one workload of
// the DLM simulator, checks the outputs, and prints every metric by name
// with its unit; the last line of standard output is a JSON result:
//
//	perfbench --workload steady-100k --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the workload untraced and then traced, checks that both
// produce the same simulated fingerprint, and reports the per-layer
// metrics. See README.md for the metrics, the workloads and why each
// exists. Run it from the repository root (run.sh builds it there).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// metricDef is a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peer_units_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of the traced run, grouped by layer. A layer a
// workload does not reach from outside reads 0 (see README.md).
var perLayer = []metricDef{
	{"sim.self_s", "s"},
	{"sim.events", "count"},
	{"sim.lane_events", "count"},
	{"sim.batches", "count"},
	{"sim.pending_max", "count"},
	{"ns_per_event", "ns"},
	{"unit_p50_ms", "ms"},
	{"unit_p95_ms", "ms"},
	{"unit_samples", "count"},
	{"overlay.repair_s", "s"},
	{"overlay.join_s", "s"},
	{"overlay.joins", "count"},
	{"overlay.leaves", "count"},
	{"overlay.connects", "count"},
	{"overlay.disconnects", "count"},
	{"overlay.promotions", "count"},
	{"overlay.demotions", "count"},
	{"overlay.repair_links", "count"},
	{"overlay.churn_reconnects", "count"},
	{"overlay.pao_links", "count"},
	{"overlay.link_drops", "count"},
	{"overlay.msgs", "count"},
	{"pao_nlco_pct", "%"},
	{"core.tick_s", "s"},
	{"core.tick_p50_ms", "ms"},
	{"core.tick_p95_ms", "ms"},
	{"core.handle_s", "s"},
	{"core.handle_calls", "count"},
	{"core.handle_lane_cpu_s", "s"},
	{"core.connect_s", "s"},
	{"core.connect_calls", "count"},
	{"core.disconnect_s", "s"},
	{"core.layerchange_s", "s"},
	{"core.initial_s", "s"},
	{"protocol.requests", "count"},
	{"protocol.responses", "count"},
	{"protocol.response_ratio", "ratio"},
	{"protocol.retries", "count"},
	{"protocol.abandoned", "count"},
	{"dlm_msgs_per_peer_unit", "msg/peer-unit"},
	{"ratio_err_pct", "%"},
	{"query.issue_s", "s"},
	{"query.issued", "count"},
	{"query.msgs_per_query", "msg"},
	{"query.supers_reached_mean", "count"},
	{"query.dup_ratio", "ratio"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"query_samples", "count"},
	{"query_success_pct", "%"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.table3_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_pct", "%"},
}

// repoRoot is the repository checkout the benchmark runs in: it reads the
// committed results/ there. run.sh starts the benchmark from it.
const repoRoot = "."

// setupReps is the fewest set-ups a run makes; setup_s is their median.
const setupReps = 3

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	shards   int
}

// report is what a run measured and checked.
type report struct {
	checks []check
	values map[string]float64
}

func (r *report) check(name string, ok bool) { r.checks = append(r.checks, check{name, ok}) }

func workloadNames() []string {
	names := make([]string, 0, len(singleSpecs)+1)
	for _, s := range singleSpecs {
		names = append(names, s.name)
	}
	return append(names, "paper-repro")
}

func main() {
	var o options
	var trace int
	list := flag.Bool("list", false, "print the workload names and exit")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	flag.Int64Var(&o.seed, "seed", referenceSeed, "workload seed (the reference checks apply to seed 1 only)")
	flag.Float64Var(&o.seconds, "seconds", 30, "untraced: repeat the workload (at least twice) while another repetition ends within this many host seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(workloadNames(), "\n"))
		return
	}
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if !slices.Contains(workloadNames(), o.workload) {
		fatalf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	o.traced = trace == 1
	o.shards = runtime.NumCPU()

	printEnv(o)
	var rep *report
	var err error
	if o.workload == "paper-repro" {
		rep, err = paperWorkload(o)
	} else {
		for _, s := range singleSpecs {
			if s.name == o.workload {
				rep, err = singleWorkload(s, o)
			}
		}
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if !emit(rep, o.traced) {
		os.Exit(1)
	}
}

// emit prints the checks and metrics and the JSON result line; it
// reports whether every check passed.
func emit(rep *report, traced bool) bool {
	failed := 0
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			failed++
		}
		fmt.Printf("check %-4s %s\n", status, c.name)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " not measured")
		}
		fmt.Printf("metric %-26s %.6g %s\n", d.name, v, d.unit)
		out[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, len(rep.checks), failed, out})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	return failed == 0
}

// printEnv records the environment the result was measured in.
func printEnv(o options) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.traced,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(repoRoot),
		"shards":     o.shards,
		"workers":    o.shards,
	}
	line, err := json.Marshal(env)
	if err != nil {
		panic(err)
	}
	fmt.Printf("env %s\n", line)
}

// commit returns the VCS revision the binary was built from, when the
// build could see one.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
