package main

import (
	"slices"
	"time"

	"dlm/internal/sim"
)

// spanID names a layer boundary the traced run records. Every span is
// opened and closed from this package, around a call into a layer's
// public API; nothing inside the program is instrumented.
type spanID int

const (
	// spanSim is one sim.Engine.RunUntil call: one simulated time unit.
	spanSim spanID = iota
	// spanOverlayTick is overlay.Network.Tick (degree repair, then the
	// manager's tick).
	spanOverlayTick
	// spanOverlayJoin runs from the return of Manager.InitialLayer to the
	// observer's OnJoin for the same peer: the overlay's join mechanics.
	spanOverlayJoin
	spanCoreInitial
	spanCoreTick
	spanCoreHandle
	spanCoreConnect
	spanCoreDisconnect
	spanCoreLayerChange
	spanQueryIssue
	spanFig4
	spanFig5
	spanFig6
	spanFig7
	spanFig8
	spanTable3
	numSpans
)

// spanAcc aggregates one span name: calls, inclusive time and self time
// (inclusive minus the part covered by child spans), in nanoseconds.
type spanAcc struct {
	calls, total, self int64
}

type frame struct {
	id    spanID
	start int64
	child int64 // nanoseconds of this frame covered by child spans
}

type interval struct{ lo, hi int64 }

// laneAcc holds one lane's share of the lane-parallel message handling
// (ParallelManager.HandleMessageLane). Only the goroutine running the
// lane writes it, and sim.ForLanes joins those goroutines before the
// engine moves on, so no counter is shared. The padding keeps
// neighbouring lanes off one cache line.
type laneAcc struct {
	calls int64
	cpu   int64
	ivs   []interval
	_     [64]byte
}

// tracer keeps the spans of one traced run in memory as per-name
// aggregates. Spans on the simulation goroutine nest on a stack; the
// lane-parallel handler spans are kept per lane and merged into their
// parent when it closes. A nil *tracer records nothing, so the untraced
// run calls the same methods.
type tracer struct {
	clock func() int64
	stack []frame
	spans [numSpans]spanAcc
	lanes [sim.NumLanes]laneAcc
	// laneWall is the wall time covered by lane spans (their union).
	laneWall int64
	merged   []interval
	// tickMs holds the inclusive duration of every core tick.
	tickMs []float64
}

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(t0)) }}
}

func (t *tracer) now() int64 { return t.clock() }

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{id: id, start: t.now()})
}

// end closes the innermost open span and returns its inclusive duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if f.id == spanSim {
		// Same-timestamp batches are fired by the engine loop itself, so
		// the lane spans recorded since the last unit all belong here.
		f.child += t.drainLanes()
	}
	d := now - f.start
	acc := &t.spans[f.id]
	acc.calls++
	acc.total += d
	acc.self += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	return d
}

// top reports the innermost open span.
func (t *tracer) top() (spanID, bool) {
	if t == nil || len(t.stack) == 0 {
		return 0, false
	}
	return t.stack[len(t.stack)-1].id, true
}

// laneSpan records one lane-parallel handler call on its lane.
func (t *tracer) laneSpan(lane int, lo, hi int64) {
	a := &t.lanes[lane]
	a.calls++
	a.cpu += hi - lo
	a.ivs = append(a.ivs, interval{lo, hi})
}

// drainLanes merges the pending lane spans and returns the wall time they
// cover together.
func (t *tracer) drainLanes() int64 {
	t.merged = t.merged[:0]
	for i := range t.lanes {
		t.merged = append(t.merged, t.lanes[i].ivs...)
		t.lanes[i].ivs = t.lanes[i].ivs[:0]
	}
	covered := unionLength(t.merged)
	t.laneWall += covered
	return covered
}

// unionLength returns the total length covered by the intervals; it
// sorts ivs in place.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var total int64
	lo, hi := ivs[0].lo, ivs[0].hi
	for _, iv := range ivs[1:] {
		if iv.lo > hi {
			total += hi - lo
			lo, hi = iv.lo, iv.hi
		} else if iv.hi > hi {
			hi = iv.hi
		}
	}
	return total + hi - lo
}

// laneTotals sums the per-lane accumulators.
func (t *tracer) laneTotals() (calls, cpu int64) {
	for i := range t.lanes {
		calls += t.lanes[i].calls
		cpu += t.lanes[i].cpu
	}
	return calls, cpu
}

func (t *tracer) selfSec(id spanID) float64  { return float64(t.spans[id].self) / 1e9 }
func (t *tracer) totalSec(id spanID) float64 { return float64(t.spans[id].total) / 1e9 }
