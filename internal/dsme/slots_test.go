package dsme

import (
	"strings"
	"testing"

	"qma/internal/sim"
	"qma/internal/superframe"
)

// These tests cover the slots.go edges the scenario-level integration runs
// never pin directly: hearsay refresh/expiry, MarkNeighbor precedence over
// every owned state, Nth ordering, time conflicts and the state stringer.

func TestSlotMapMarkNeighborRefreshAndExpiry(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	a := superframe.GTSFromIndex(cfg, 0)
	b := superframe.GTSFromIndex(cfg, 1)

	m.MarkNeighbor(a, 1*sim.Second)
	m.MarkNeighbor(b, 2*sim.Second)
	if m.State(a) != SlotNeighbor || m.State(b) != SlotNeighbor {
		t.Fatalf("states after MarkNeighbor: %v %v", m.State(a), m.State(b))
	}

	// Re-hearing a refreshes its expiry; b goes stale.
	m.MarkNeighbor(a, 5*sim.Second)
	if n := m.ExpireNeighbors(3 * sim.Second); n != 1 {
		t.Fatalf("ExpireNeighbors cleared %d entries, want 1", n)
	}
	if m.State(b) != SlotFree || m.Peer(b) != -1 {
		t.Fatalf("stale hearsay b not cleared: %v peer=%d", m.State(b), m.Peer(b))
	}
	if m.State(a) != SlotNeighbor {
		t.Fatalf("refreshed hearsay a expired: %v", m.State(a))
	}

	// Expiring again at the same cutoff is a no-op.
	if n := m.ExpireNeighbors(3 * sim.Second); n != 0 {
		t.Fatalf("second expiry cleared %d entries, want 0", n)
	}
	// A later cutoff clears the refreshed entry too.
	if n := m.ExpireNeighbors(6 * sim.Second); n != 1 {
		t.Fatalf("late expiry cleared %d entries, want 1", n)
	}
}

func TestSlotMapMarkNeighborPrecedence(t *testing.T) {
	cfg := superframe.DefaultConfig()
	for _, owned := range []SlotState{SlotPending, SlotTX, SlotRX} {
		m := NewSlotMap(cfg)
		g := superframe.GTSFromIndex(cfg, 3)
		m.Set(g, owned, 7)
		m.MarkNeighbor(g, 1*sim.Second)
		if m.State(g) != owned || m.Peer(g) != 7 {
			t.Fatalf("MarkNeighbor demoted %v to %v (peer %d)", owned, m.State(g), m.Peer(g))
		}
		// Owned states must also survive expiry.
		m.ExpireNeighbors(3600 * sim.Second)
		if m.State(g) != owned {
			t.Fatalf("ExpireNeighbors cleared owned state %v", owned)
		}
	}
}

func TestSlotMapOwnedOrderAndKinds(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	tx1 := superframe.GTSFromIndex(cfg, 9)
	tx2 := superframe.GTSFromIndex(cfg, 2)
	rx := superframe.GTSFromIndex(cfg, 5)
	m.Set(tx1, SlotTX, 1)
	m.Set(tx2, SlotTX, 2)
	m.Set(rx, SlotRX, 3)

	// Nth walks the slots of one state in grid order.
	first, ok0 := m.Nth(SlotTX, 0)
	second, ok1 := m.Nth(SlotTX, 1)
	if _, ok2 := m.Nth(SlotTX, 2); !ok0 || !ok1 || ok2 || first != tx2 || second != tx1 {
		t.Fatalf("Nth(SlotTX, 0..2) = %v %v, want grid order [%v %v] and no third", first, second, tx2, tx1)
	}
	if got, ok := m.Nth(SlotRX, 0); !ok || got != rx {
		t.Fatalf("Nth(SlotRX, 0) = %v/%v, want %v", got, ok, rx)
	}
	if _, ok := m.Nth(SlotRX, 1); ok {
		t.Fatalf("Nth(SlotRX, 1) found a second rx slot")
	}
	if m.Count(SlotTX) != 2 || m.Count(SlotRX) != 1 {
		t.Fatalf("Count: tx=%d rx=%d", m.Count(SlotTX), m.Count(SlotRX))
	}
	if m.Count(SlotFree) != cfg.GTSPerMultiframe()-3 {
		t.Fatalf("Count(SlotFree) = %d", m.Count(SlotFree))
	}
}

func TestSlotMapPickFreeWrapsNegative(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	total := cfg.GTSPerMultiframe()
	// Occupy everything except indices 1 and 3.
	for i := 0; i < total; i++ {
		if i != 1 && i != 3 {
			m.Set(superframe.GTSFromIndex(cfg, i), SlotNeighbor, -1)
		}
	}
	// Two free slots: even picks land on index 1, odd picks on index 3,
	// negative picks wrap instead of panicking.
	cases := map[int]int{0: 1, 1: 3, 2: 1, -1: 3, -2: 1, 7: 3}
	for pick, wantIdx := range cases {
		g, ok := m.PickFree(pick)
		if !ok || g != superframe.GTSFromIndex(cfg, wantIdx) {
			t.Fatalf("PickFree(%d) = %v/%v, want index %d", pick, g, ok, wantIdx)
		}
	}
}

func TestSlotStateString(t *testing.T) {
	want := map[SlotState]string{
		SlotFree:     "free",
		SlotNeighbor: "neighbor",
		SlotPending:  "pending",
		SlotTX:       "tx",
		SlotRX:       "rx",
	}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
	if got := SlotState(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown state stringer = %q", got)
	}
}

// TestSlotMapTimeTaken pins the one-radio rule: a slot's time coordinate is
// taken when any channel at the same (superframe, slot) is owned or pending,
// and hearsay or a different slot time never blocks it.
func TestSlotMapTimeTaken(t *testing.T) {
	cfg := superframe.DefaultConfig()
	g := superframe.GTS{Superframe: 1, Slot: 4, Channel: 3}
	for _, st := range []SlotState{SlotTX, SlotRX, SlotPending} {
		m := NewSlotMap(cfg)
		m.Set(superframe.GTS{Superframe: 1, Slot: 4, Channel: 15}, st, 2)
		if !m.TimeTaken(g) {
			t.Errorf("%v on another channel at the same time does not take %v", st, g)
		}
	}
	m := NewSlotMap(cfg)
	m.Set(superframe.GTS{Superframe: 1, Slot: 4, Channel: 0}, SlotNeighbor, -1)
	m.Set(superframe.GTS{Superframe: 1, Slot: 5, Channel: 3}, SlotTX, 2)
	m.Set(superframe.GTS{Superframe: 0, Slot: 4, Channel: 3}, SlotRX, 2)
	if m.TimeTaken(g) {
		t.Errorf("hearsay or another slot time takes %v", g)
	}
}
