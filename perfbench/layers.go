package main

import (
	"dlm/internal/msg"
	"dlm/internal/overlay"
	"dlm/internal/sim"
)

// tracedManager wraps a layer manager (in practice *core.Manager) and
// records a span around every hook the overlay calls. It changes no
// argument and no result, so the traced run takes the untraced run's code
// path; the fingerprint comparison checks that.
type tracedManager struct {
	inner overlay.Manager
	tr    *tracer
}

// tracedParallel is tracedManager for an inner manager that also handles
// messages lane-parallel. Forwarding overlay.ParallelManager keeps
// same-timestamp deliveries on the batched path.
type tracedParallel struct {
	*tracedManager
	par overlay.ParallelManager
}

// wrapManager returns the traced wrapper; it implements
// overlay.ParallelManager exactly when inner does.
func wrapManager(inner overlay.Manager, tr *tracer) overlay.Manager {
	tm := &tracedManager{inner: inner, tr: tr}
	if par, ok := inner.(overlay.ParallelManager); ok {
		return &tracedParallel{tracedManager: tm, par: par}
	}
	return tm
}

func (m *tracedManager) Name() string { return m.inner.Name() }

// InitialLayer also opens the overlay join span, which the counting
// observer's OnJoin closes once Join has made the peer's links.
func (m *tracedManager) InitialLayer(n *overlay.Network, p *overlay.Peer) overlay.Layer {
	m.tr.begin(spanCoreInitial)
	l := m.inner.InitialLayer(n, p)
	m.tr.end()
	m.tr.begin(spanOverlayJoin)
	return l
}

func (m *tracedManager) OnConnect(n *overlay.Network, a, b *overlay.Peer) {
	m.tr.begin(spanCoreConnect)
	m.inner.OnConnect(n, a, b)
	m.tr.end()
}

func (m *tracedManager) OnDisconnect(n *overlay.Network, a, b *overlay.Peer) {
	m.tr.begin(spanCoreDisconnect)
	m.inner.OnDisconnect(n, a, b)
	m.tr.end()
}

func (m *tracedManager) OnLayerChange(n *overlay.Network, p *overlay.Peer, old overlay.Layer) {
	m.tr.begin(spanCoreLayerChange)
	m.inner.OnLayerChange(n, p, old)
	m.tr.end()
}

func (m *tracedManager) HandleMessage(n *overlay.Network, to *overlay.Peer, mm *msg.Message) {
	m.tr.begin(spanCoreHandle)
	m.inner.HandleMessage(n, to, mm)
	m.tr.end()
}

func (m *tracedManager) Tick(n *overlay.Network, now sim.Time) {
	m.tr.begin(spanCoreTick)
	m.inner.Tick(n, now)
	m.tr.tickMs = append(m.tr.tickMs, float64(m.tr.end())/1e6)
}

// HandleMessageLane runs on the lane's worker goroutine; it records into
// the lane's own accumulator.
func (m *tracedParallel) HandleMessageLane(n *overlay.Network, to *overlay.Peer, mm *msg.Message, lane int, out *[]msg.Message) {
	lo := m.tr.now()
	m.par.HandleMessageLane(n, to, mm, lane, out)
	m.tr.laneSpan(lane, lo, m.tr.now())
}

// countingObserver counts the overlay's structural changes at the
// observer boundary and closes the join span.
type countingObserver struct {
	tr *tracer
	joins, leaves, connects, disconnects,
	promotions, demotions uint64
	// unpaired counts OnJoin calls that found no open join span: a
	// broken span pairing, reported as a failed check.
	unpaired uint64
}

func (o *countingObserver) OnJoin(*overlay.Network, *overlay.Peer) {
	o.joins++
	if id, ok := o.tr.top(); !ok || id != spanOverlayJoin {
		o.unpaired++
		return
	}
	o.tr.end()
}

func (o *countingObserver) OnConnect(*overlay.Network, *overlay.Peer, *overlay.Peer) { o.connects++ }

func (o *countingObserver) OnDisconnect(*overlay.Network, *overlay.Peer, *overlay.Peer) {
	o.disconnects++
}

func (o *countingObserver) OnLayerChange(_ *overlay.Network, p *overlay.Peer, _ overlay.Layer) {
	if p.Layer == overlay.LayerSuper {
		o.promotions++
	} else {
		o.demotions++
	}
}

func (o *countingObserver) OnLeave(*overlay.Network, *overlay.Peer) { o.leaves++ }
