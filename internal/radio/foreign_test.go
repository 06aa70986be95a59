package radio

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// foreignTestMedium builds a 2-node medium (0—1 linked) with an attached
// no-op handler per node.
func foreignTestMedium(t *testing.T) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.NewKernel()
	g := NewGraphTopology(2)
	g.AddLink(0, 1)
	m := NewMedium(k, g, sim.NewRand(1))
	m.SetInvariantChecks(true)
	for i := frame.NodeID(0); i < 2; i++ {
		m.Attach(i, HandlerFunc(func(*frame.Frame) {}))
	}
	return k, m
}

func TestScheduleForeignBusyRaisesCCA(t *testing.T) {
	k, m := foreignTestMedium(t)
	const start, end = 10 * sim.Millisecond, 20 * sim.Millisecond
	m.ScheduleForeignBusy(1, 0, start, end)

	type probe struct {
		at    sim.Time
		clear bool
	}
	var got []probe
	for _, at := range []sim.Time{start - 1, start, end - 1, end, end + 1} {
		at := at
		atFunc(k, at, func() { got = append(got, probe{at, m.CCA(1)}) })
	}
	k.Run(sim.Never)
	// Half-open [start, end): busy exactly on [start, end-1], clear at end —
	// the same semantics a local sense link gets from StartTX/busyEnd.
	want := []bool{true, false, false, true, true}
	for i, p := range got {
		if p.clear != want[i] {
			t.Errorf("CCA at %v: clear=%v, want %v", p.at, p.clear, want[i])
		}
	}
}

func TestScheduleForeignBusyIgnoresEmptyAndPoolsInstances(t *testing.T) {
	k, m := foreignTestMedium(t)
	m.ScheduleForeignBusy(0, 0, 5*sim.Millisecond, 5*sim.Millisecond) // empty: ignored
	for i := 0; i < 3; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		atFunc(k, at, func() { m.ScheduleForeignBusy(0, 0, at+1*sim.Millisecond, at+3*sim.Millisecond) })
	}
	k.Run(sim.Never)
	if len(m.foreignPool) != 1 {
		t.Fatalf("foreign pool holds %d instances after sequential injections, want 1 (recycled)", len(m.foreignPool))
	}
	if got := m.busy[0][0]; got != 0 {
		t.Fatalf("busy counter %d after all foreign windows expired, want 0", got)
	}
}

func TestScheduleForeignBusyPastPanics(t *testing.T) {
	k, m := foreignTestMedium(t)
	atFunc(k, 10*sim.Millisecond, func() {})
	k.Run(sim.Never)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling foreign busy in the past should panic")
		}
	}()
	m.ScheduleForeignBusy(0, 0, 5*sim.Millisecond, 8*sim.Millisecond)
}

func TestTxObserverSeesTransmissions(t *testing.T) {
	k, m := foreignTestMedium(t)
	type obs struct {
		src        frame.NodeID
		start, end sim.Time
	}
	var seen []obs
	m.SetTxObserver(func(src frame.NodeID, channel uint8, start, end sim.Time) {
		seen = append(seen, obs{src, start, end})
	})
	pool := &frame.Pool{}
	f := pool.Get()
	f.Kind = frame.Data
	f.Src, f.Dst = 0, 1
	var end sim.Time
	atFunc(k, 3*sim.Millisecond, func() { end = m.StartTX(0, f, 0) })
	k.Run(sim.Never)
	if len(seen) != 1 {
		t.Fatalf("observer saw %d transmissions, want 1", len(seen))
	}
	if seen[0].src != 0 || seen[0].start != 3*sim.Millisecond || seen[0].end != end {
		t.Fatalf("observer saw %+v, want src 0 start 3ms end %v", seen[0], end)
	}
}
