package aloha

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// atFunc schedules fn at t as the kernel's one event form, a static
// callback over a record: here the record is the closure.
func atFunc(k *sim.Kernel, t sim.Time, fn func()) sim.EventID { return k.AtCall(t, callFunc, fn) }

// afterFunc schedules fn d after the current instant.
func afterFunc(k *sim.Kernel, d sim.Time, fn func()) sim.EventID {
	return k.AtCall(k.Now()+d, callFunc, fn)
}

func callFunc(fn any) { fn.(func())() }

type rig struct {
	k       *sim.Kernel
	m       *radio.Medium
	clock   *superframe.Clock
	engines []*Engine
}

func newRig(t *testing.T, links [][2]int, n int, variant Variant, cfgs []mac.Config) *rig {
	t.Helper()
	g := radio.NewGraphTopology(n)
	for _, l := range links {
		g.AddLink(frame.NodeID(l[0]), frame.NodeID(l[1]))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(7))
	clock := superframe.NewClock(superframe.DefaultConfig())
	r := &rig{k: k, m: m, clock: clock}
	for i := 0; i < n; i++ {
		mc := mac.Config{}
		if i < len(cfgs) {
			mc = cfgs[i]
		}
		mc.ID, mc.Kernel, mc.Medium, mc.Clock, mc.MaxRetries = frame.NodeID(i), k, m, clock, mac.DefaultMaxRetries
		e := New(Config{MAC: mc, Variant: variant, Rng: sim.NewRandStream(7, uint64(i))})
		r.engines = append(r.engines, e)
		m.Attach(frame.NodeID(i), e)
		e.Start()
	}
	return r
}

func dataTo(dst, src frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: dst, Origin: src, Sink: dst, Seq: seq, MPDUBytes: 40}
}

func TestDeliversOnIdleChannel(t *testing.T) {
	for _, v := range []Variant{Pure, Slotted} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, [][2]int{{0, 1}}, 2, v, nil)
			for i := 0; i < 20; i++ {
				f := dataTo(1, 0, uint32(i+1))
				afterFunc(r.k, sim.Time(i)*100*sim.Millisecond, func() { r.engines[0].Enqueue(f) })
			}
			r.k.Run(5 * sim.Second)
			s := r.engines[0].Base().Stats()
			if s.TxSuccess != 20 || s.TxFail != 0 {
				t.Fatalf("stats: %+v", s)
			}
			if r.engines[1].Base().Stats().Delivered != 20 {
				t.Fatalf("receiver delivered %d", r.engines[1].Base().Stats().Delivered)
			}
			// An idle channel never triggers a retransmission backoff.
			if es := r.engines[0].EngineStats(); es.Backoffs != 0 {
				t.Errorf("backoffs on an idle channel: %+v", es)
			}
		})
	}
}

// TestSlottedAlignsToSubslotBoundaries pins the slotted variant's defining
// property: every transmission starts exactly on a CAP subslot boundary.
func TestSlottedAlignsToSubslotBoundaries(t *testing.T) {
	// Observe delivery instants at the sink: a frame is delivered when its
	// transmission ends, so start = delivery - duration.
	var starts []sim.Time
	k := sim.NewKernel()
	g := radio.NewGraphTopology(2)
	g.AddLink(0, 1)
	m := radio.NewMedium(k, g, sim.NewRand(7))
	clock := superframe.NewClock(superframe.DefaultConfig())
	sender := New(Config{
		MAC:     mac.Config{ID: 0, Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries},
		Variant: Slotted,
		Rng:     sim.NewRandStream(7, 0),
	})
	sink := New(Config{
		MAC: mac.Config{ID: 1, Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries,
			OnSinkDeliver: func(g *frame.Frame) { starts = append(starts, k.Now()-g.Duration()) }},
		Variant: Slotted,
		Rng:     sim.NewRandStream(7, 1),
	})
	m.Attach(0, sender)
	m.Attach(1, sink)
	sender.Start()
	sink.Start()
	for i := 0; i < 10; i++ {
		f := dataTo(1, 0, uint32(i+1))
		afterFunc(k, sim.Time(i)*37*sim.Millisecond, func() { sender.Enqueue(f) })
	}
	k.Run(2 * sim.Second)
	if len(starts) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(starts))
	}
	for _, at := range starts {
		idx := clock.Subslot(at)
		if idx < 0 || clock.SubslotStart(at, idx) != at {
			t.Errorf("transmission started at %v, not on a subslot boundary", at)
		}
	}
}

// TestPureTransmitsImmediately pins pure ALOHA's defining property: a frame
// enqueued mid-CAP on an idle node goes on the air at that very instant (no
// backoff, no CCA, no slot alignment).
func TestPureTransmitsImmediately(t *testing.T) {
	var deliveredAt sim.Time
	k := sim.NewKernel()
	g := radio.NewGraphTopology(2)
	g.AddLink(0, 1)
	m := radio.NewMedium(k, g, sim.NewRand(7))
	clock := superframe.NewClock(superframe.DefaultConfig())
	sender := New(Config{
		MAC:     mac.Config{ID: 0, Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries},
		Variant: Pure,
		Rng:     sim.NewRandStream(7, 0),
	})
	sink := New(Config{
		MAC: mac.Config{ID: 1, Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries,
			OnSinkDeliver: func(*frame.Frame) { deliveredAt = k.Now() }},
		Variant: Pure,
		Rng:     sim.NewRandStream(7, 1),
	})
	m.Attach(0, sender)
	m.Attach(1, sink)
	sender.Start()
	sink.Start()
	f := dataTo(1, 0, 1)
	at := clock.NextSubslotStart(0) + 333 // mid-CAP, off the slot grid
	atFunc(k, at, func() { sender.Enqueue(f) })
	k.Run(1 * sim.Second)
	if want := at + f.Duration(); deliveredAt != want {
		t.Errorf("delivered at %v, want %v (immediate transmission)", deliveredAt, want)
	}
}

// TestHiddenNodesCollideAndRecover checks that ALOHA suffers collisions two
// hidden saturated senders cause, and that the BEB retransmission path
// recovers at least some of them.
func TestHiddenNodesCollideAndRecover(t *testing.T) {
	for _, v := range []Variant{Pure, Slotted} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, v, nil)
			seq := uint32(0)
			for i := 0; i < 100; i++ {
				seq++
				r.engines[0].Enqueue(dataTo(1, 0, seq))
				r.engines[2].Enqueue(dataTo(1, 2, seq))
				r.k.Run(r.k.Now() + 40*sim.Millisecond)
			}
			r.k.Run(r.k.Now() + 2*sim.Second)
			s0, s2 := r.engines[0].Base().Stats(), r.engines[2].Base().Stats()
			if s0.TxFail+s2.TxFail == 0 {
				t.Error("no failed transmissions in a saturated hidden-node setup")
			}
			if r.engines[0].EngineStats().Backoffs == 0 {
				t.Error("no retransmission backoffs despite collisions")
			}
			if r.engines[1].Base().Stats().Delivered == 0 {
				t.Error("nothing delivered at the sink")
			}
		})
	}
}

func TestTransactionsRespectCAPBoundary(t *testing.T) {
	for _, v := range []Variant{Pure, Slotted} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, [][2]int{{0, 1}}, 2, v, nil)
			capEnd := r.clock.CAPEnd(r.clock.NextSubslotStart(0))
			// Pure: enqueue in the trailing CAP guard, where nothing fits.
			// Slotted: enqueue so the next subslot boundary is the CAP's
			// last, from which frame + ACK cross the CAP end.
			at := capEnd - 500
			if v == Slotted {
				at = capEnd - 3000
			}
			atFunc(r.k, at, func() { r.engines[0].Enqueue(dataTo(1, 0, 1)) })
			r.k.Run(capEnd + 100)
			if got := r.engines[0].Base().Stats().TxAttempts; got != 0 {
				t.Fatalf("transmitted %d frames across the CAP boundary", got)
			}
			if r.engines[0].EngineStats().Deferrals == 0 {
				t.Error("no deferral recorded")
			}
			r.k.Run(r.clock.Config().SuperframeDuration() * 2)
			if got := r.engines[0].Base().Stats().TxSuccess; got != 1 {
				t.Fatalf("deferred frame not delivered: success=%d", got)
			}
		})
	}
}

// TestRetryExhaustion pins the shared retry policy: with no receiver, the
// initial attempt plus NR retransmissions (each preceded by one backoff) and
// a final drop.
func TestRetryExhaustion(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Pure, nil)
	r.engines[0].Enqueue(dataTo(5, 0, 1)) // destination does not exist
	r.k.Run(5 * sim.Second)
	s := r.engines[0].Base().Stats()
	es := r.engines[0].EngineStats()
	if s.TxAttempts != 4 || s.RetryDrops != 1 {
		t.Errorf("attempts=%d drops=%d, want 4/1", s.TxAttempts, s.RetryDrops)
	}
	if es.Backoffs != 3 {
		t.Errorf("Backoffs = %d, want 3 (one per retransmission)", es.Backoffs)
	}
	// ALOHA never declares a CSMA-style channel access failure.
	if s.CSMAFails != 0 {
		t.Errorf("CSMAFails = %d, want 0", s.CSMAFails)
	}
}

// TestOptionsValidation pins the registry-level option checks (overflowing
// exponents, inversions against the defaulted counterpart).
func TestOptionsValidation(t *testing.T) {
	for name, o := range map[string]Options{
		"negative":              {MinBE: -1},
		"overflowing exponent":  {MinBE: 33, MaxBE: 33},
		"min above max":         {MinBE: 5, MaxBE: 4},
		"min above default max": {MinBE: 6},
	} {
		if err := validateOptions(ProtoPure, o); err == nil {
			t.Errorf("%s: validateOptions accepted %+v", name, o)
		}
	}
	if err := validateOptions(ProtoPure, Options{MinBE: 2, MaxBE: 6}); err != nil {
		t.Errorf("validateOptions rejected good options: %v", err)
	}
}

func TestVariantStringAndBadConfig(t *testing.T) {
	if Pure.String() != "pure" || Slotted.String() != "slotted" {
		t.Error("variant names wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Rng")
		}
	}()
	New(Config{})
}
