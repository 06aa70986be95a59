package bandit

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

type rig struct {
	k       *sim.Kernel
	m       *radio.Medium
	clock   *superframe.Clock
	engines []*Engine
}

func newRig(t *testing.T, links [][2]int, n int, opts Options) *rig {
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
			MAC:     mac.Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock, MaxRetries: -1},
			Options: opts,
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
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{})
	for i := 0; i < 20; i++ {
		f := dataTo(1, 0, uint32(i+1))
		r.k.Schedule(sim.Time(i)*100*sim.Millisecond, func() { r.engines[0].Enqueue(f) })
	}
	r.k.Run(8 * sim.Second)
	s := r.engines[0].Base().Stats()
	if s.TxSuccess != 20 {
		t.Fatalf("stats: %+v", s)
	}
	if r.engines[1].Base().Stats().Delivered != 20 {
		t.Fatalf("receiver delivered %d", r.engines[1].Base().Stats().Delivered)
	}
	if es := r.engines[0].EngineStats(); es.Pulls == 0 {
		t.Errorf("no pulls recorded: %+v", es)
	}
}

// TestUCBTriesEveryArmOnce pins the UCB1 cold-start rule: before any arm is
// pulled twice, every arm must have been pulled once (in slot order).
func TestUCBTriesEveryArmOnce(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{Picker: UCB1})
	subslots := r.clock.Config().Subslots
	// One pull per superframe at worst (queue cap is 8): pace arrivals at
	// superframe rate so no frame is dropped and every arrival buys a pull.
	sfd := r.clock.Config().SuperframeDuration()
	for i := 0; i < subslots+10; i++ {
		f := dataTo(1, 0, uint32(i+1))
		r.k.Schedule(sim.Time(i)*sfd, func() { r.engines[0].Enqueue(f) })
	}
	r.k.Run(sim.Time(subslots+16) * sfd)
	counts := r.engines[0].Counts()
	covered := 0
	for _, c := range counts {
		if c > 0 {
			covered++
		}
	}
	if covered != subslots {
		t.Errorf("UCB covered %d/%d arms before exploiting", covered, subslots)
	}
}

// TestRewardTracksOutcome pins the value update: a successful unicast
// rewards its slot 1, an unacknowledged one rewards it 0.
func TestRewardTracksOutcome(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{Explorer: qlearn.None{}})
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.k.Run(2 * r.clock.Config().SuperframeDuration())
	if v := r.engines[0].Values(); v[r.engines[0].BestSlot()] != 1 {
		t.Errorf("successful slot value = %v, want 1", v[r.engines[0].BestSlot()])
	}
	// No receiver: the retry policy burns 4 attempts, each rewarding 0.
	r2 := newRig(t, [][2]int{{0, 1}}, 2, Options{Explorer: qlearn.None{}})
	r2.engines[0].Enqueue(dataTo(5, 0, 1))
	r2.k.Run(8 * r2.clock.Config().SuperframeDuration())
	if s := r2.engines[0].Base().Stats(); s.RetryDrops != 1 {
		t.Fatalf("stats: %+v", s)
	}
	zeroed := 0
	for _, v := range r2.engines[0].Values() {
		if v == 0 {
			zeroed++
		}
	}
	if zeroed == 0 {
		t.Error("no slot learned a zero value from failed transmissions")
	}
}

// TestHiddenSendersSeparate is the headline property: two saturated hidden
// senders start with identical value tables, collide, and ε-exploration
// breaks the symmetry until they exploit different subslots.
func TestHiddenSendersSeparate(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Options{})
	seq := uint32(0)
	for i := 0; i < 400; i++ {
		seq++
		r.engines[0].Enqueue(dataTo(1, 0, seq))
		r.engines[2].Enqueue(dataTo(1, 2, seq))
		r.k.Run(r.k.Now() + 60*sim.Millisecond)
	}
	r.k.Run(r.k.Now() + 5*sim.Second)
	b0, b2 := r.engines[0].BestSlot(), r.engines[2].BestSlot()
	if b0 == b2 {
		t.Errorf("both hidden senders exploit subslot %d", b0)
	}
	del := r.engines[1].Base().Stats().Delivered
	if del < 400 {
		t.Errorf("sink delivered %d of 800 frames — bandit never settled", del)
	}
}

// TestCAPEndSlotsArePunished pins the livelock guard: a pull whose
// transaction cannot complete before the CAP end is rewarded 0 instead of
// being rescheduled forever.
func TestCAPEndSlotsArePunished(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{Picker: UCB1})
	subslots := r.clock.Config().Subslots
	sfd := r.clock.Config().SuperframeDuration()
	for i := 0; i < subslots+10; i++ {
		f := dataTo(1, 0, uint32(i+1))
		// A fat frame: its transaction cannot complete from the last slots.
		f.MPDUBytes = 120
		r.k.Schedule(sim.Time(i)*sfd, func() { r.engines[0].Enqueue(f) })
	}
	r.k.Run(sim.Time(subslots+16) * sfd)
	es := r.engines[0].EngineStats()
	if es.Deferrals == 0 {
		t.Fatal("no CAP-end deferral recorded for a fat frame sweep")
	}
	v := r.engines[0].Values()
	if v[len(v)-1] != 0 {
		t.Errorf("last subslot value = %v, want 0 (unusable for this frame size)", v[len(v)-1])
	}
}

func TestPickerStringAndBadConfig(t *testing.T) {
	if EpsilonGreedy.String() != "egreedy" || UCB1.String() != "ucb" {
		t.Error("picker names wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Rng")
		}
	}()
	New(Config{})
}
