package core

import (
	"slices"
	"testing"

	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/protocol"
	"dlm/internal/sim"
	"dlm/internal/workload"
)

// refreshProbe wraps a Manager and checks every Tick's refresh phase
// against the full population scan the refresh calendar replaced: the
// leaves refreshed during the tick must be exactly the leaves whose
// machine reported RefreshDue(now) when the tick began.
type refreshProbe struct {
	*Manager
	t *testing.T

	// refreshed collects the peers stamped at now during the current
	// tick. A leaf refreshed and then promoted in the same tick has its
	// stamp wiped by the layer-change reset, so OnLayerChange records it
	// first.
	inTick    bool
	now       protocol.Time
	refreshed map[msg.PeerID]bool

	ticks, dueTotal int
}

func (r *refreshProbe) Tick(n *overlay.Network, now sim.Time) {
	pnow := protocol.Time(now)
	want := make(map[msg.PeerID]bool)
	n.WalkPeers(func(p *overlay.Peer) {
		if p.Layer != overlay.LayerLeaf {
			return
		}
		// RefreshDue stamps the machine it is asked; ask a copy so the
		// live machine reaches the tick untouched.
		probe := *r.state(n, p)
		if probe.RefreshDue(pnow) {
			want[p.ID] = true
		}
	})

	r.refreshed = make(map[msg.PeerID]bool)
	r.inTick, r.now = true, pnow
	r.Manager.Tick(n, now)
	r.inTick = false
	n.WalkPeers(func(p *overlay.Peer) {
		if ma, ok := p.State.(*protocol.Machine); ok && ma.RefreshAt() == pnow {
			r.refreshed[p.ID] = true
		}
	})

	var missed, extra []msg.PeerID
	for id := range want {
		if !r.refreshed[id] {
			missed = append(missed, id)
		}
	}
	for id := range r.refreshed {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	if len(missed) > 0 || len(extra) > 0 {
		slices.Sort(missed)
		slices.Sort(extra)
		r.t.Fatalf("t=%v: due but not refreshed %v; refreshed but not due %v", now, missed, extra)
	}
	r.ticks++
	r.dueTotal += len(want)
}

func (r *refreshProbe) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	if r.inTick {
		if ma, ok := p.State.(*protocol.Machine); ok && ma.RefreshAt() == r.now {
			r.refreshed[p.ID] = true
		}
	}
	r.Manager.OnLayerChange(n, p, old)
}

// TestRefreshCalendarMatchesScan is the refresh calendar's differential
// oracle. An event-driven run with churn, promotions and demotions is
// checked tick by tick: the calendar must refresh exactly the leaves a
// scan of every leaf's RefreshDue(now) finds due — no leaf missed after a
// join or a demotion, and none refreshed early or twice.
func TestRefreshCalendarMatchesScan(t *testing.T) {
	p := DefaultParams()
	if p.Exchange != EventDriven || p.RefreshInterval <= 0 {
		t.Fatalf("default params do not exercise the refresh calendar: %+v", p)
	}
	eng := sim.NewEngine(3)
	probe := &refreshProbe{Manager: NewManager(p), t: t}
	n := overlay.New(eng, overlay.Config{M: 2, KS: 3, Eta: 10}, probe)
	churn := &overlay.Churn{
		Net: n,
		Profile: &workload.StaticProfile{
			Capacity: workload.SaroiuBandwidthMixture(),
			Lifetime: workload.LognormalWithMedian(60, 1.2),
		},
		TargetSize: 600,
		GrowthRate: 150,
	}
	churn.Start()
	const until = 400
	eng.Ticker(1, func(e *sim.Engine) bool {
		n.Tick()
		return e.Now() < until
	})
	if err := eng.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	if probe.ticks < until-1 || probe.dueTotal == 0 {
		t.Fatalf("probe saw %d ticks and %d due leaves; the oracle checked nothing", probe.ticks, probe.dueTotal)
	}
	if probe.Promotions == 0 || probe.Demotions == 0 {
		t.Fatalf("run had %d promotions and %d demotions; want both layer changes exercised",
			probe.Promotions, probe.Demotions)
	}
}
