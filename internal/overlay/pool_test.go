package overlay

import (
	"testing"

	"dlm/internal/msg"
	"dlm/internal/sim"
)

// TestDeliverPoolCapped pins the retention cap on the overlay side: the
// delivery-event pool stops growing at maxDeliverPool, so a burst of
// in-flight messages does not pin its peak carrier count for the
// network's whole lifetime. It also pins that a recycled carrier takes
// the lane it is handed out for, not the lane it last served.
func TestDeliverPoolCapped(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{M: 2, KS: 3, Eta: 10, Latency: 0.5}, nil)

	// Direct pool exercise: more carriers in flight than the cap admits
	// back.
	const burst = 4 * maxDeliverPool
	carriers := make([]*deliverEvent, burst)
	for i := range carriers {
		carriers[i] = n.getDeliver(3)
	}
	for _, d := range carriers {
		n.putDeliver(d)
	}
	if got := len(n.deliverPool); got > maxDeliverPool {
		t.Errorf("pool holds %d carriers after burst, cap is %d", got, maxDeliverPool)
	}

	// A carrier taken for lane 3 and put back is reissued for lane 5.
	d := n.getDeliver(3)
	n.putDeliver(d)
	if d2 := n.getDeliver(5); d2 != d {
		t.Fatal("pool did not reissue the carrier just put back")
	} else if d2.lane != 5 {
		t.Errorf("reused carrier reports lane %d, want 5", d2.lane)
	}

	// End-to-end: a latency network with a message burst leaves the pool
	// bounded after the queue drains.
	p := n.Join(10, 100, nil)
	q := n.Join(10, 100, nil)
	for i := 0; i < burst; i++ {
		n.Send(msg.ValueRequest(p.ID, q.ID))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.deliverPool); got > maxDeliverPool {
		t.Errorf("pool holds %d carriers after drain, cap is %d", got, maxDeliverPool)
	}
}
