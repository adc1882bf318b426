package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"dlm/internal/config"
	"dlm/internal/core"
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/query"
	"dlm/internal/sim"
	"dlm/internal/stats"
)

// spec describes a single-run workload: one DLM simulation built from the
// same public constructors experiments.RunOn uses.
type spec struct {
	name string
	n    int
	// warmup ends set-up; the measured window runs from there to
	// duration (simulated units).
	warmup, duration float64
	// queryRate > 0 attaches the query plane and has the benchmark's own
	// ticker issue that many closed-loop queries per simulated unit, over
	// the measured window only. With warmup 0 that is query.Driver's
	// schedule, whose first tick fires at t=1.
	queryRate float64
}

// steady-100k uses experiments.Scale's span (400 units, a quarter of it
// warm-up), so it is the results/scale.txt N=100000 run. That window
// opens in the cold-start trim, while the super-layer swings between a
// few hundred and a few thousand peers; a flood reaches every super-peer,
// so search-20k sets up past the trim and measures the settled overlay
// instead.
var singleSpecs = []spec{
	{name: "steady-100k", n: 100000, warmup: 100, duration: 400},
	{name: "search-20k", n: 20000, queryRate: 30, warmup: 400, duration: 700},
}

// scenario returns the workload's scenario for a seed.
func (s spec) scenario(seed int64) config.Scenario {
	sc := config.Scaled(s.n)
	sc.Seed = seed
	sc.Duration = s.duration
	sc.Warmup = s.warmup
	sc.SampleEvery = math.Max(1, math.Floor(sc.Duration/50))
	sc.QueryRate = s.queryRate
	return sc
}

// fingerprint is a run's simulated outcome. It is a pure function of the
// seed; two runs of one seed must produce equal fingerprints whatever
// their shard count and whether or not they were traced.
type fingerprint struct {
	Events, LaneEvents, Batches uint64
	Supers                      int
	Ratio                       float64
	Traffic                     stats.Traffic
	Counters                    overlay.Counters // measured window only
	Retries, Drops              uint64
	QueriesIssued, QueriesFound uint64 // measured window only
}

// warmState is the simulated state at the end of set-up; every pass of
// one seed must reach the same one.
type warmState struct {
	Events, LaneEvents, Batches uint64
	Supers                      int
	Ratio                       float64
	Traffic                     stats.Traffic
}

// singleRun is everything one execution of a single-run workload yields.
type singleRun struct {
	fp         fingerprint
	atWarm     warmState
	invariants []string

	setupSec, windowSec, wallSec float64
	unitMs                       []float64 // host time per measured unit
	ratios                       []float64 // layer ratio after each measured unit
	eta                          float64
	windowEvents                 uint64
	windowDLMMsgs                uint64
	rt                           counters // allocation and GC over set-up and window
	peakLiveBytes                uint64   // live heap after set-up or window, the larger
	pendingMax                   int

	// Query plane, over the measured window: per-call host time, success,
	// and message/reach/duplicate sums.
	queryUs                          []float64
	queries, found                   uint64
	queryMsgs, queryDupes            uint64
	queryQueryMsgs, querySupersTotal uint64

	// Whole-run overlay counters (the network resets its own at warm-up).
	counters overlay.Counters
	tr       *tracer
	obs      *countingObserver
}

// counters are the runtime's cumulative allocation and GC tallies.
type counters struct{ alloc, cycles, pauseNs uint64 }

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// meter sums the runtime tallies over the timed stretches of a run, so
// the benchmark's own forced collections between them are left out.
type meter struct {
	sum, from counters
}

func (m *meter) start() { m.from = readCounters() }

func (m *meter) stop() {
	c := readCounters()
	m.sum.alloc += c.alloc - m.from.alloc
	m.sum.cycles += c.cycles - m.from.cycles
	m.sum.pauseNs += c.pauseNs - m.from.pauseNs
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveAfterGC runs a full collection and returns the live heap in bytes.
func liveAfterGC() uint64 {
	runtime.GC()
	metrics.Read(liveSample)
	return liveSample[0].Value.Uint64()
}

// runSingle executes the workload once. With traced set it installs the
// manager wrapper and the counting observer; with setupOnly it stops when
// the warm-up ends. The construction order mirrors experiments.RunOn, so
// the simulated output is RunOn's exactly.
func runSingle(s spec, seed int64, shards int, traced, setupOnly bool) (*singleRun, error) {
	sc := s.scenario(seed)
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &singleRun{eta: sc.Eta}
	var tr *tracer
	if traced {
		tr = newTracer()
		r.tr = tr
	}
	var m meter
	m.start()
	start := time.Now()

	eng := sim.NewEngine(seed)
	eng.SetShards(shards)
	inner := core.NewManager(core.DefaultParams())
	var mgr overlay.Manager = inner
	if traced {
		mgr = wrapManager(inner, tr)
	}
	net := overlay.New(eng, sc.Overlay(), mgr)

	var qe *query.Engine
	var cat *query.Catalog
	if s.queryRate > 0 {
		cat = query.NewCatalog(sc.CatalogSize, 0.8, 0.8)
		qe = query.Attach(net, cat)
		qe.DefaultTTL = uint8(sc.TTL)
	}
	if traced {
		r.obs = &countingObserver{tr: tr}
		net.Observe(r.obs)
	}
	churn := &overlay.Churn{
		Net:        net,
		Profile:    sc.BaseProfile(),
		TargetSize: sc.N,
		GrowthRate: sc.GrowthRate,
	}
	if cat != nil {
		churn.Catalog = cat
	}
	churn.Start()

	end := sim.Time(sc.Duration)
	warm := sim.Time(sc.Warmup)
	if qe != nil {
		// query.Driver's schedule, issuing through the synchronous
		// IssueRandom so each closed-loop call can be timed.
		acc := 0.0
		eng.Ticker(1, func(e *sim.Engine) bool {
			if e.Now() <= warm {
				return true
			}
			acc += s.queryRate
			for acc >= 1 {
				acc--
				r.issueQuery(qe, tr)
			}
			return e.Now() < end
		})
	}

	var preWarm overlay.Counters
	warmed := false
	nextSample := 0.0
	eng.Ticker(1, func(e *sim.Engine) bool {
		tr.begin(spanOverlayTick)
		net.Tick()
		tr.end()
		now := float64(e.Now())
		if !warmed && e.Now() >= warm {
			warmed = true
			preWarm = net.Counters()
			net.ResetCounters()
			if qe != nil {
				qe.ResetStats()
			}
		}
		if now >= nextSample {
			// RunOn samples its time series here; the snapshot is part of
			// the workload's cost.
			nextSample = now + sc.SampleEvery
			_ = net.Snapshot()
		}
		if e.Now() > warm {
			r.ratios = append(r.ratios, net.Ratio())
		}
		return e.Now() < end
	})

	// The live heap is read after a forced collection at the set-up/window
	// boundary and at the end; neither collection is timed.
	var windowStart time.Time
	var eventsAtWarm, dlmAtWarm uint64
	units := int(sc.Duration)
	for u := 1; u <= units; u++ {
		if u == int(sc.Warmup)+1 {
			r.setupSec = time.Since(start).Seconds()
			m.stop()
			r.atWarm = warmState{eng.EventsFired(), eng.LaneEventsFired(), eng.BatchesFired(),
				net.NumSupers(), net.Ratio(), net.Traffic()}
			if setupOnly {
				return r, nil
			}
			r.peakLiveBytes = liveAfterGC()
			eventsAtWarm = r.atWarm.Events
			dlmAtWarm = r.atWarm.Traffic.DLMMessages()
			m.start()
			windowStart = time.Now()
		}
		t0 := time.Now()
		tr.begin(spanSim)
		err := eng.RunUntil(sim.Time(u))
		tr.end()
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: unit %d: %w", s.name, u, err)
		}
		if sim.Time(u) > warm {
			r.unitMs = append(r.unitMs, float64(d)/1e6)
		}
		if traced {
			r.pendingMax = max(r.pendingMax, eng.Pending())
		}
	}
	r.windowSec = time.Since(windowStart).Seconds()
	r.wallSec = r.setupSec + r.windowSec
	m.stop()
	r.rt = m.sum
	r.peakLiveBytes = max(r.peakLiveBytes, liveAfterGC())

	r.windowEvents = eng.EventsFired() - eventsAtWarm
	traffic := net.Traffic()
	r.windowDLMMsgs = traffic.DLMMessages() - dlmAtWarm
	final := net.Snapshot()
	r.fp = fingerprint{
		Events:     eng.EventsFired(),
		LaneEvents: eng.LaneEventsFired(),
		Batches:    eng.BatchesFired(),
		Supers:     final.NumSupers,
		Ratio:      final.Ratio,
		Traffic:    traffic,
		Counters:   net.Counters(),
		Retries:    inner.RequestRetries,
		Drops:      inner.RequestDrops,
	}
	if qe != nil {
		r.fp.QueriesIssued = qe.Issued
		r.fp.QueriesFound = qe.Succeeded
	}
	r.counters = addCounters(preWarm, net.Counters())
	r.invariants = net.CheckInvariants()
	return r, nil
}

// issueQuery issues one query and records its host time and outcome.
func (r *singleRun) issueQuery(qe *query.Engine, tr *tracer) {
	t0 := time.Now()
	tr.begin(spanQueryIssue)
	res := qe.IssueRandom()
	tr.end()
	d := time.Since(t0)
	if res == nil {
		return
	}
	r.queryUs = append(r.queryUs, float64(d)/1e3)
	r.queries++
	if res.Found {
		r.found++
	}
	r.queryMsgs += res.QueryMsgs + res.HitMsgs
	r.queryQueryMsgs += res.QueryMsgs
	r.queryDupes += uint64(res.Duplicates)
	r.querySupersTotal += uint64(res.SupersReached)
}

// addCounters sums the counters the per-layer report reads.
func addCounters(a, b overlay.Counters) overlay.Counters {
	a.Joins += b.Joins
	a.Leaves += b.Leaves
	a.Promotions += b.Promotions
	a.Demotions += b.Demotions
	a.DemotionDisconnects += b.DemotionDisconnects
	a.NewLeafConnections += b.NewLeafConnections
	a.ChurnReconnects += b.ChurnReconnects
	a.RepairConnections += b.RepairConnections
	a.PartitionDrops += b.PartitionDrops
	for k := range a.LinkDrops {
		a.LinkDrops[k] += b.LinkDrops[k]
		a.LinkDups[k] += b.LinkDups[k]
	}
	return a
}

// ratioErrPct is the mean |ratio − η| / η over the samples, in percent.
func ratioErrPct(ratios []float64, eta float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ratios {
		sum += math.Abs(v-eta) / eta
	}
	return 100 * sum / float64(len(ratios))
}

// protocolCounts splits the whole run's DLM traffic into Phase-1
// requests and responses.
func protocolCounts(t stats.Traffic) (requests, responses uint64) {
	requests = t.Count(msg.KindNeighNumRequest) + t.Count(msg.KindValueRequest)
	responses = t.Count(msg.KindNeighNumResponse) + t.Count(msg.KindValueResponse)
	return requests, responses
}
