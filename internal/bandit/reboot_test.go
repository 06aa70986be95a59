package bandit

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// TestRebootOrphansPendingPull reboots a node while its first pull waits for
// the chosen slot. The stale pull must still fire — the kernel event count
// is pinned, so cancelling it fails the test — but as a no-op: it neither
// transmits nor touches the counters, and the pull armed after the reboot
// delivers the next frame in its own slot.
func TestRebootOrphansPendingPull(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{})
	e := r.engines[0]
	e.Enqueue(dataTo(1, 0, 1))
	e.Reboot()
	// The next frame arrives after subslot 0 of the first superframe has
	// passed, so the post-reboot pull (arm 0, the freshly reset bandit's
	// argmax) waits for the next superframe — past the stale pull's slot.
	const arrival = 10 * sim.Millisecond
	r.k.At(arrival, func() { e.Enqueue(dataTo(1, 0, 2)) })
	live := r.clock.SubslotStart(arrival, 0)
	if live <= arrival {
		live += r.clock.Config().SuperframeDuration()
	}
	r.k.Run(live - 1)
	if s := e.Base().Stats(); s.TxAttempts != 0 {
		t.Fatalf("transmitted before the post-reboot pull's slot: %+v", s)
	}
	r.k.Run(sim.Second)

	s := e.Base().Stats()
	if s.TxAttempts != 1 || s.TxSuccess != 1 || s.Reboots != 1 {
		t.Fatalf("MAC stats after reboot: %+v", s)
	}
	if got := r.engines[1].Base().Stats().Delivered; got != 1 {
		t.Fatalf("receiver delivered %d frames, want 1", got)
	}
	if es := e.EngineStats(); es != (Stats{Pulls: 2, Explorations: 1}) {
		t.Fatalf("engine stats %+v", es)
	}
	if c := e.Counts(); c[0] != 1 {
		t.Fatalf("arm counts %v after reboot, want the one post-reboot pull on arm 0", c)
	}
	if got := r.k.Processed(); got != 9 {
		t.Fatalf("kernel processed %d events, want 9", got)
	}
}

// TestRebootOrphansBarringRetry reboots a node while an access-class
// barring retry is pending. The reboot reopens the gate, so the next frame
// is pulled at once; the stale retry must fire as a no-op rather than
// re-kick the engine or be cancelled.
func TestRebootOrphansBarringRetry(t *testing.T) {
	k := sim.NewKernel()
	g := radio.NewGraphTopology(2)
	g.AddLink(0, 1)
	m := radio.NewMedium(k, g, sim.NewRand(7))
	clock := superframe.NewClock(superframe.DefaultConfig())
	var engines []*Engine
	for i := 0; i < 2; i++ {
		mc := mac.Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock, MaxRetries: -1}
		if i == 0 {
			mc.BarringRng = sim.NewRandStream(9, 0)
		}
		e := New(Config{MAC: mc, Rng: sim.NewRandStream(7, uint64(i))})
		engines = append(engines, e)
		m.Attach(frame.NodeID(i), e)
		e.Start()
	}
	e := engines[0]
	e.Base().SetBarring(0, 50*sim.Millisecond) // p = 0: every draw is barred
	e.Enqueue(dataTo(1, 0, 1))
	if s := e.Base().Stats(); s.Barred != 1 {
		t.Fatalf("first access not barred: %+v", s)
	}
	e.Reboot()
	e.Enqueue(dataTo(1, 0, 2))
	k.Run(sim.Second)

	s := e.Base().Stats()
	if s.TxAttempts != 1 || s.TxSuccess != 1 || s.Barred != 1 || s.Reboots != 1 {
		t.Fatalf("MAC stats after reboot: %+v", s)
	}
	if got := engines[1].Base().Stats().Delivered; got != 1 {
		t.Fatalf("receiver delivered %d frames, want 1", got)
	}
	if es := e.EngineStats(); es != (Stats{Pulls: 1, Explorations: 1}) {
		t.Fatalf("engine stats %+v, want the one post-reboot pull", es)
	}
	if got := k.Processed(); got != 8 {
		t.Fatalf("kernel processed %d events, want 8", got)
	}
}
