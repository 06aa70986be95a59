package csma

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

func newRig(t *testing.T, links [][2]int, n int, variant Variant) *rig {
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
		e := New(Config{
			MAC:     mac.Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock, MaxRetries: mac.DefaultMaxRetries},
			Variant: variant,
			Rng:     sim.NewRandStream(7, uint64(i)),
		})
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
	for _, v := range []Variant{Unslotted, Slotted} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, [][2]int{{0, 1}}, 2, v)
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
			es := r.engines[0].EngineStats()
			if es.Backoffs == 0 || es.CCAAttempts == 0 {
				t.Errorf("no backoff/CCA recorded: %+v", es)
			}
		})
	}
}

func TestSlottedUsesTwoCCAs(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Slotted)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.k.Run(2 * sim.Second)
	es := r.engines[0].EngineStats()
	if es.CCAAttempts != 2 {
		t.Errorf("CCAAttempts = %d, want 2 (CW=2)", es.CCAAttempts)
	}
}

// TestCCADefersToOngoingTransmission checks carrier sensing: node 2
// transmits a long frame while node 0 wants to send — 0 must see a busy
// channel and back off rather than collide.
func TestCCADefersToOngoingTransmission(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 3, Unslotted)
	// A long broadcast from node 2 occupies the channel.
	long := &frame.Frame{Kind: frame.Data, Src: 2, Dst: frame.Broadcast, Origin: 2, Sink: frame.Broadcast, Seq: 1, MPDUBytes: 120}
	capStart := r.clock.NextSubslotStart(0)
	atFunc(r.k, capStart, func() { r.m.StartTX(2, long, 0) })
	atFunc(r.k, capStart+10, func() { r.engines[0].Enqueue(dataTo(1, 0, 1)) })
	r.k.Run(1 * sim.Second)
	s := r.engines[0].Base().Stats()
	es := r.engines[0].EngineStats()
	if s.TxSuccess != 1 {
		t.Fatalf("frame not delivered eventually: %+v", s)
	}
	if es.CCABusy == 0 {
		t.Errorf("no busy CCA despite the occupied channel (backoffs=%d)", es.Backoffs)
	}
}

// TestHiddenNodesCollide checks the §6.1 premise: carrier sensing cannot
// protect against a hidden transmitter, so simultaneous saturated senders
// lose frames despite CSMA/CA.
func TestHiddenNodesCollide(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Unslotted)
	seq := uint32(0)
	for i := 0; i < 100; i++ {
		seq++
		r.engines[0].Enqueue(dataTo(1, 0, seq))
		r.engines[2].Enqueue(dataTo(1, 2, seq))
		r.k.Run(r.k.Now() + 40*sim.Millisecond)
	}
	r.k.Run(r.k.Now() + 2*sim.Second)
	fails := r.engines[0].Base().Stats().TxFail + r.engines[2].Base().Stats().TxFail
	if fails == 0 {
		t.Error("no failed transmissions in a saturated hidden-node setup")
	}
}

func TestTransactionsRespectCAPBoundary(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Slotted)
	// Enqueue right before the CAP ends: the transaction must defer.
	capEnd := r.clock.CAPEnd(r.clock.NextSubslotStart(0))
	atFunc(r.k, capEnd-500, func() { r.engines[0].Enqueue(dataTo(1, 0, 1)) })
	r.k.Run(capEnd + 100)
	if got := r.engines[0].Base().Stats().TxAttempts; got != 0 {
		t.Fatalf("transmitted %d frames across the CAP boundary", got)
	}
	// It completes in the next CAP.
	r.k.Run(r.clock.Config().SuperframeDuration() * 2)
	if got := r.engines[0].Base().Stats().TxSuccess; got != 1 {
		t.Fatalf("deferred frame not delivered: success=%d", got)
	}
}

func TestRetryAfterAckLoss(t *testing.T) {
	// Destination 5 does not exist: every attempt fails, the frame retries
	// NR times and is finally dropped.
	r := newRig(t, [][2]int{{0, 1}}, 2, Unslotted)
	r.engines[0].Enqueue(dataTo(5, 0, 1))
	r.k.Run(5 * sim.Second)
	s := r.engines[0].Base().Stats()
	if s.TxAttempts != 4 { // 1 + NR retries
		t.Errorf("TxAttempts = %d, want 4", s.TxAttempts)
	}
	if s.RetryDrops != 1 {
		t.Errorf("RetryDrops = %d, want 1", s.RetryDrops)
	}
}

// TestBackoffExhaustionDropsFrame pins the channel-access-failure path for
// both variants: with the channel jammed through every CCA, NB exceeds
// macMaxCSMABackoffs and the frame must be dropped without ever reaching the
// air — counted by the engine's AccessFailures and the MAC base's CSMAFails,
// not by the retry counters.
func TestBackoffExhaustionDropsFrame(t *testing.T) {
	for _, v := range []Variant{Unslotted, Slotted} {
		t.Run(v.String(), func(t *testing.T) {
			// Nodes 2 and 3 jam node 0 with overlapping long broadcasts
			// (4 ms each, started every 3 ms) across the first three
			// superframes, so every CCA node 0 performs finds the channel
			// busy.
			r := newRig(t, [][2]int{{0, 1}, {0, 2}, {0, 3}}, 4, v)
			for i := 0; sim.Time(i)*3*sim.Millisecond < 380*sim.Millisecond; i++ {
				jammer := frame.NodeID(2 + i%2)
				f := &frame.Frame{Kind: frame.Data, Src: jammer, Dst: frame.Broadcast,
					Origin: jammer, Sink: frame.Broadcast, Seq: uint32(i + 1), MPDUBytes: 120}
				atFunc(r.k, sim.Time(i)*3*sim.Millisecond, func() { r.m.StartTX(jammer, f, 0) })
			}
			r.engines[0].Enqueue(dataTo(1, 0, 1))
			r.k.Run(600 * sim.Millisecond)

			es := r.engines[0].EngineStats()
			s := r.engines[0].Base().Stats()
			if es.AccessFailures != 1 {
				t.Errorf("AccessFailures = %d, want 1 (engine stats: %+v)", es.AccessFailures, es)
			}
			if s.CSMAFails != 1 {
				t.Errorf("CSMAFails = %d, want 1 (base stats: %+v)", s.CSMAFails, s)
			}
			if s.TxAttempts != 0 || s.RetryDrops != 0 {
				t.Errorf("frame reached the air or the retry path: %+v", s)
			}
			if !r.engines[0].Base().Queue().Empty() {
				t.Error("dropped frame still queued")
			}
			if es.CCABusy <= uint64(MacMaxCSMABackoffs) {
				t.Errorf("CCABusy = %d, want > macMaxCSMABackoffs=%d", es.CCABusy, MacMaxCSMABackoffs)
			}
		})
	}
}

// TestSlottedCWRequiresTwoClearBoundaries pins the slotted variant's CW=2
// contention window: one clear CCA is never enough to transmit. The jammer
// occupies exactly every second 320 µs backoff period (a 352 µs burst
// centred on the odd periods' CCA sample instant), so whenever the first
// CCA finds its boundary clear, the mandatory second CCA on the next
// boundary is busy — the transaction must restart its backoff every time
// and exhaust, despite the channel being idle half the time.
func TestSlottedCWRequiresTwoClearBoundaries(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {0, 2}}, 3, Slotted)
	cfg := r.clock.Config()
	seq := uint32(0)
	for sf := sim.Time(0); sf < 3; sf++ {
		capStart := sf*cfg.SuperframeDuration() + cfg.CAPStartOffset()
		capEnd := capStart + cfg.CAPDuration()
		for k := sim.Time(0); ; k++ {
			// Sample instants are boundary+128 µs; cover the odd
			// boundaries' samples with a burst over [272 µs, 624 µs) of
			// each 640 µs pair, leaving the even boundaries' samples clear.
			start := capStart + k*2*UnitBackoffPeriod + 272*sim.Microsecond
			f := &frame.Frame{Kind: frame.Data, Src: 2, Dst: frame.Broadcast,
				Origin: 2, Sink: frame.Broadcast, MPDUBytes: 5}
			if start+f.Duration() > capEnd {
				break
			}
			seq++
			f.Seq = seq
			atFunc(r.k, start, func() { r.m.StartTX(2, f, 0) })
		}
	}
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.k.Run(600 * sim.Millisecond)

	es := r.engines[0].EngineStats()
	s := r.engines[0].Base().Stats()
	if s.TxAttempts != 0 {
		t.Fatalf("transmitted %d frames without two consecutive clear CCAs", s.TxAttempts)
	}
	if es.AccessFailures != 1 || s.CSMAFails != 1 {
		t.Errorf("exhaustion not reached: engine %+v, base CSMAFails=%d", es, s.CSMAFails)
	}
	if es.CCAAttempts <= es.CCABusy {
		t.Errorf("no clear first CCA recorded (attempts=%d busy=%d) — the jam pattern is wrong",
			es.CCAAttempts, es.CCABusy)
	}
}

func TestVariantString(t *testing.T) {
	if Unslotted.String() != "unslotted" || Slotted.String() != "slotted" {
		t.Error("variant names wrong")
	}
}

// TestOptionsValidation pins the registry-level option checks: exponents
// that would overflow the backoff draw and min/max inversions (including
// against the defaulted counterpart) must be rejected.
func TestOptionsValidation(t *testing.T) {
	for name, o := range map[string]Options{
		"negative":              {MinBE: -1},
		"overflowing exponent":  {MinBE: 33, MaxBE: 33},
		"min above max":         {MinBE: 5, MaxBE: 4},
		"min above default max": {MinBE: 6},
		"negative max backoffs": {MaxBackoffs: -2},
	} {
		if err := validateOptions(ProtoUnslotted, o); err == nil {
			t.Errorf("%s: validateOptions accepted %+v", name, o)
		}
	}
	for name, o := range map[string]Options{
		"zero value": {},
		"custom":     {MinBE: 2, MaxBE: 6, MaxBackoffs: 5},
		"max only":   {MaxBE: 8},
	} {
		if err := validateOptions(ProtoUnslotted, o); err != nil {
			t.Errorf("%s: validateOptions rejected %+v: %v", name, o, err)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Rng")
		}
	}()
	New(Config{})
}
