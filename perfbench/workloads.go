package main

import (
	"fmt"
	"runtime"
	"time"
)

const mb = 1 << 20

// paperSetupReps is how many batches of set-up calls paper-repro times
// (see timePaperSetup); a batch that a collection lands in is an outlier
// the median drops.
const paperSetupReps = 101

// singleWorkload runs a single-run workload. Every run starts with a
// set-up-only pass, which warms the process. Untraced, the full workload
// then repeats as long as --seconds allow (see another), and set-up-only
// passes follow until there have been setupReps set-ups, whose median is
// setup_s. Traced, the workload runs once untraced and
// once traced. Every timed pass is retried while the host steals CPU
// time (see leastStolen), and every pass must reach the same warm-up
// state.
func singleWorkload(s spec, o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	setupPass := func() (*singleRun, error) {
		runtime.GC()
		return runSingle(s, o.seed, o.shards, false, true)
	}
	full := func(traced bool) (*singleRun, error) {
		runtime.GC()
		r, err := runSingle(s, o.seed, o.shards, traced, false)
		if err != nil {
			return nil, err
		}
		rep.check(fmt.Sprintf("invariants (traced=%v)", traced), len(r.invariants) == 0)
		for _, v := range r.invariants {
			fmt.Printf("invariant: %s\n", v)
		}
		if s.queryRate > 0 {
			rep.check("query stats match the engine's",
				r.queries == r.fp.QueriesIssued && r.found == r.fp.QueriesFound)
		}
		return r, nil
	}

	warmup, err := setupPass()
	if err != nil {
		return nil, err
	}
	setups := []float64{warmup.setupSec}
	if o.traced {
		u, _, _, err := leastStolen(func() (*singleRun, error) { return full(false) })
		if err != nil {
			return nil, err
		}
		rep.check("set-up reproduces the warm-up state", warmup.atWarm == u.atWarm)
		t, _, _, err := leastStolen(func() (*singleRun, error) { return full(true) })
		if err != nil {
			return nil, err
		}
		rep.check("traced fingerprint equals untraced", t.fp == u.fp)
		rep.check("join spans pair up", t.obs.unpaired == 0 && t.obs.joins == t.counters.Joins)
		referenceChecks(rep, s, o, u)
		percentileChecks(rep, u)
		perLayerSingle(rep.values, s, u, t)
		return rep, nil
	}

	var runs []*singleRun
	var first *singleRun
	start := time.Now()
	var last time.Duration
	for another(len(runs), time.Since(start), last, o.seconds) {
		t0 := time.Now()
		r, steal, tries, err := leastStolen(func() (*singleRun, error) {
			r, err := full(false)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = r
			} else {
				rep.check("repeat reproduces the fingerprint", r.fp == first.fp)
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupSec)
		fmt.Printf("repetition %d: %d tries, %.1f%% of CPU time stolen\n", len(runs)+1, tries, 100*steal)
		runs = append(runs, r)
		last = time.Since(t0)
	}
	rep.check("set-up reproduces the warm-up state", warmup.atWarm == runs[0].atWarm)
	for len(setups) < setupReps {
		r, err := setupPass()
		if err != nil {
			return nil, err
		}
		rep.check("set-up reproduces the warm-up state", r.atWarm == runs[0].atWarm)
		setups = append(setups, r.setupSec)
	}
	referenceChecks(rep, s, o, runs[0])
	span := s.duration - s.warmup
	med := func(f func(r *singleRun) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return median(v)
	}
	rep.values["setup_s"] = median(setups)
	rep.values["wall_s"] = med(func(r *singleRun) float64 { return r.wallSec })
	rep.values["peer_units_per_s"] = med(func(r *singleRun) float64 { return peerUnitsPerSec(s.n, span, r.windowSec) })
	rep.values["alloc_mb"] = med(func(r *singleRun) float64 { return float64(r.rt.alloc) / mb })
	rep.values["peak_heap_mb"] = med(func(r *singleRun) float64 { return float64(r.peakLiveBytes) / mb })
	fmt.Printf("runs %d, set-ups %d, %.3f s\n", len(runs), len(setups), time.Since(start).Seconds())
	return rep, nil
}

// minReps is the fewest repetitions an untraced run makes, so that its
// medians never rest on a single one.
const minReps = 2

// another reports whether an untraced run makes another repetition,
// given the number made, the host time since the first started and the
// last one's length: at least minReps, then more while one as long as the
// last still ends within seconds.
func another(reps int, elapsed, last time.Duration, seconds float64) bool {
	return reps < minReps || (elapsed+last).Seconds() <= seconds
}

// referenceChecks compares the reference seed's steady-100k outcome with
// the N=100000 row of results/scale.txt.
func referenceChecks(rep *report, s spec, o options, r *singleRun) {
	if o.seed != referenceSeed || s.name != "steady-100k" {
		return
	}
	ref, err := loadScaleRef(repoRoot, s.n)
	if err != nil {
		fmt.Printf("reference: %v\n", err)
		rep.check("results/scale.txt readable", false)
		return
	}
	rep.check("events match results/scale.txt", r.fp.Events == ref.events)
	rep.check("supers match results/scale.txt", r.fp.Supers == ref.supers)
	rep.check("ratio matches results/scale.txt", fmt.Sprintf("%.2f", r.fp.Ratio) == ref.ratio)
}

// percentileChecks confirms that the sample counts support the
// percentiles the metric names promise.
func percentileChecks(rep *report, u *singleRun) {
	rep.check(fmt.Sprintf("unit_p95_ms has >= %d of %d samples beyond it", minTail, len(u.unitMs)),
		highestPercentile(len(u.unitMs)) >= 9500)
	if len(u.queryUs) > 0 {
		rep.check(fmt.Sprintf("query_p99_us has >= %d of %d samples beyond it", minTail, len(u.queryUs)),
			highestPercentile(len(u.queryUs)) >= 9900)
	}
}

// perLayerSingle fills the per-layer metrics of a single-run workload
// from its untraced run u and traced run t.
func perLayerSingle(v map[string]float64, s spec, u, t *singleRun) {
	zeroAll(v)
	span := s.duration - s.warmup
	tr := t.tr

	v["sim.self_s"] = tr.selfSec(spanSim)
	v["sim.events"] = float64(t.fp.Events)
	v["sim.lane_events"] = float64(t.fp.LaneEvents)
	v["sim.batches"] = float64(t.fp.Batches)
	v["sim.pending_max"] = float64(t.pendingMax)
	v["ns_per_event"] = nsPerEvent(u.windowSec, u.windowEvents)
	v["unit_p50_ms"] = percentile(u.unitMs, 5000)
	v["unit_p95_ms"] = percentile(u.unitMs, 9500)
	v["unit_samples"] = float64(len(u.unitMs))

	c := t.counters
	v["overlay.repair_s"] = tr.selfSec(spanOverlayTick)
	v["overlay.join_s"] = tr.selfSec(spanOverlayJoin)
	v["overlay.joins"] = float64(t.obs.joins)
	v["overlay.leaves"] = float64(t.obs.leaves)
	v["overlay.connects"] = float64(t.obs.connects)
	v["overlay.disconnects"] = float64(t.obs.disconnects)
	v["overlay.promotions"] = float64(t.obs.promotions)
	v["overlay.demotions"] = float64(t.obs.demotions)
	v["overlay.repair_links"] = float64(c.RepairConnections)
	v["overlay.churn_reconnects"] = float64(c.ChurnReconnects)
	v["overlay.pao_links"] = float64(c.DemotionDisconnects)
	v["overlay.link_drops"] = float64(c.TotalLinkDrops())
	v["overlay.msgs"] = float64(t.fp.Traffic.TotalMessages())
	v["pao_nlco_pct"] = u.fp.Counters.PAOOverNLCO()

	laneCalls, laneCPU := tr.laneTotals()
	v["core.tick_s"] = tr.selfSec(spanCoreTick)
	v["core.tick_p50_ms"] = percentile(tr.tickMs, 5000)
	v["core.tick_p95_ms"] = percentile(tr.tickMs, 9500)
	v["core.handle_s"] = tr.selfSec(spanCoreHandle) + float64(tr.laneWall)/1e9
	v["core.handle_calls"] = float64(tr.spans[spanCoreHandle].calls + laneCalls)
	v["core.handle_lane_cpu_s"] = float64(laneCPU) / 1e9
	v["core.connect_s"] = tr.selfSec(spanCoreConnect)
	v["core.connect_calls"] = float64(tr.spans[spanCoreConnect].calls)
	v["core.disconnect_s"] = tr.selfSec(spanCoreDisconnect)
	v["core.layerchange_s"] = tr.selfSec(spanCoreLayerChange)
	v["core.initial_s"] = tr.selfSec(spanCoreInitial)

	req, resp := protocolCounts(t.fp.Traffic)
	v["protocol.requests"] = float64(req)
	v["protocol.responses"] = float64(resp)
	if req > 0 {
		v["protocol.response_ratio"] = float64(resp) / float64(req)
	}
	v["protocol.retries"] = float64(t.fp.Retries)
	v["protocol.abandoned"] = float64(t.fp.Drops)
	v["dlm_msgs_per_peer_unit"] = perPeerUnit(u.windowDLMMsgs, s.n, span)
	v["ratio_err_pct"] = ratioErrPct(u.ratios, u.eta)

	if t.queries > 0 {
		v["query.issue_s"] = tr.selfSec(spanQueryIssue)
		v["query.issued"] = float64(t.queries)
		v["query.msgs_per_query"] = float64(t.queryMsgs) / float64(t.queries)
		v["query.supers_reached_mean"] = float64(t.querySupersTotal) / float64(t.queries)
		if t.queryQueryMsgs > 0 {
			v["query.dup_ratio"] = float64(t.queryDupes) / float64(t.queryQueryMsgs)
		}
	}
	if len(u.queryUs) > 0 {
		v["query_p50_us"] = percentile(u.queryUs, 5000)
		v["query_p99_us"] = percentile(u.queryUs, 9900)
		v["query_samples"] = float64(len(u.queryUs))
		v["query_success_pct"] = 100 * float64(u.found) / float64(u.queries)
	}

	v["runtime.gc_cycles"] = float64(u.rt.cycles)
	v["runtime.gc_pause_s"] = float64(u.rt.pauseNs) / 1e9
	v["trace.overhead_pct"] = 100 * (t.wallSec - u.wallSec) / u.wallSec
}

// zeroAll sets every per-layer metric to 0, the reading of a layer the
// workload does not reach from outside.
func zeroAll(v map[string]float64) {
	for _, d := range perLayer {
		v[d.name] = 0
	}
}

// paperWorkload runs paper-repro. Untraced, set-up is timed
// paperSetupReps times and the job repeats as long as --seconds allow;
// traced,
// the job runs once untraced and once traced and the outputs must agree.
func paperWorkload(o options) (*report, error) {
	rep := &report{values: map[string]float64{}}
	var refs map[string]digest
	if o.seed == referenceSeed {
		var err error
		if refs, err = loadPaperRefs(repoRoot); err != nil {
			return nil, err
		}
	}
	run := func(traced bool) (*paperRun, error) {
		runtime.GC()
		r, err := runPaper(o.seed, o.shards, traced)
		if err != nil {
			return nil, err
		}
		for _, c := range paperChecks(r, o.seed, refs) {
			rep.check(c.name, c.ok)
		}
		return r, nil
	}
	if o.traced {
		u, _, _, err := leastStolen(func() (*paperRun, error) { return run(false) })
		if err != nil {
			return nil, err
		}
		t, _, _, err := leastStolen(func() (*paperRun, error) { return run(true) })
		if err != nil {
			return nil, err
		}
		rep.check("traced outputs equal untraced", sameOutputs(u, t))
		zeroAll(rep.values)
		for i, id := range []spanID{spanFig4, spanFig5, spanFig6, spanFig7, spanFig8, spanTable3} {
			name := "experiments." + paperArtifacts[i][:len(paperArtifacts[i])-4] + "_s"
			rep.values[name] = t.tr.totalSec(id)
		}
		rep.values["ratio_err_pct"] = u.ratioErrPct
		rep.values["pao_nlco_pct"] = u.paoNLCOPct
		rep.values["runtime.gc_cycles"] = float64(u.rt.cycles)
		rep.values["runtime.gc_pause_s"] = float64(u.rt.pauseNs) / 1e9
		rep.values["trace.overhead_pct"] = 100 * (t.wallSec - u.wallSec) / u.wallSec
		return rep, nil
	}

	// The first batches run while the young heap grows and is collected
	// often, which makes them slower and differ from process to process;
	// they warm the process and are not timed.
	for i := 0; i < paperSetupReps; i++ {
		timePaperSetup(o.seed, o.shards)
	}
	var setups []float64
	for i := 0; i < paperSetupReps; i++ {
		setups = append(setups, timePaperSetup(o.seed, o.shards))
	}
	var runs []*paperRun
	var first *paperRun
	start := time.Now()
	var last time.Duration
	for another(len(runs), time.Since(start), last, o.seconds) {
		t0 := time.Now()
		r, steal, tries, err := leastStolen(func() (*paperRun, error) {
			r, err := run(false)
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = r
			} else {
				rep.check("repeat reproduces the outputs", sameOutputs(r, first))
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupSec)
		fmt.Printf("repetition %d: %d tries, %.1f%% of CPU time stolen\n", len(runs)+1, tries, 100*steal)
		runs = append(runs, r)
		last = time.Since(t0)
	}
	med := func(f func(r *paperRun) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return median(v)
	}
	rep.values["setup_s"] = median(setups)
	rep.values["wall_s"] = med(func(r *paperRun) float64 { return r.wallSec })
	rep.values["peer_units_per_s"] = med(func(r *paperRun) float64 { return r.peerUnits / r.windowSec })
	rep.values["alloc_mb"] = med(func(r *paperRun) float64 { return float64(r.rt.alloc) / mb })
	rep.values["peak_heap_mb"] = med(func(r *paperRun) float64 { return float64(r.peakLiveBytes) / mb })
	for _, name := range paperArtifacts {
		fmt.Printf("artifact %-10s %.3f s\n", name, runs[0].artifactSec[name])
	}
	return rep, nil
}
