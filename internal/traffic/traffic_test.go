package traffic

import (
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

type collector struct {
	frames []*frame.Frame
	reject bool
}

func (c *collector) Enqueue(f *frame.Frame) bool {
	if c.reject {
		return false
	}
	c.frames = append(c.frames, f)
	return true
}

func TestPoissonSourceRate(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{}
	s := &Source{
		Kernel: k, Rng: sim.NewRand(1), Target: c,
		Origin: 2, Sink: 0, FirstHop: 1,
		Phases: []Phase{{Rate: 20}},
	}
	s.Start()
	k.Run(100 * sim.Second)
	got := float64(len(c.frames)) / 100
	if math.Abs(got-20) > 2 {
		t.Errorf("rate = %.1f pkt/s, want ≈20", got)
	}
	f := c.frames[0]
	if f.Origin != 2 || f.Sink != 0 || f.Dst != 1 || f.Kind != frame.Data || f.MPDUBytes != DefaultDataMPDU {
		t.Errorf("frame fields wrong: %+v", f)
	}
	// Sequence numbers are strictly increasing.
	for i := 1; i < len(c.frames); i++ {
		if c.frames[i].Seq != c.frames[i-1].Seq+1 {
			t.Fatal("sequence numbers not consecutive")
		}
	}
}

func TestSourceMaxPacketsAndStart(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{}
	s := &Source{
		Kernel: k, Rng: sim.NewRand(2), Target: c,
		Phases: []Phase{{Rate: 50}}, StartAt: 10 * sim.Second, MaxPackets: 25,
	}
	s.Start()
	k.Run(9 * sim.Second)
	if len(c.frames) != 0 {
		t.Fatalf("%d frames before StartAt", len(c.frames))
	}
	k.Run(100 * sim.Second)
	if len(c.frames) != 25 || s.Generated() != 25 {
		t.Fatalf("generated %d frames, want 25", len(c.frames))
	}
}

func TestAlternatingPhases(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{}
	s := &Source{
		Kernel: k, Rng: sim.NewRand(3), Target: c,
		Phases: []Phase{
			{Rate: 100, Duration: 10 * sim.Second},
			{Rate: 0, Duration: 10 * sim.Second},
		},
	}
	s.Start()
	k.Run(40 * sim.Second)
	// Two active phases of 10 s at 100/s ≈ 2000 packets; silent phases add
	// nothing.
	got := len(c.frames)
	if got < 1700 || got > 2300 {
		t.Fatalf("generated %d packets, want ≈2000", got)
	}
	// No packet carries a timestamp inside a silent window.
	for _, f := range c.frames {
		phase := (f.CreatedAt / (10 * sim.Second)) % 2
		if phase == 1 {
			t.Fatalf("packet generated at %v during a silent phase", f.CreatedAt)
		}
	}
}

func TestSharedSequenceCounter(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{}
	var seq uint32
	mk := func(tag frame.Tag) *Source {
		return &Source{Kernel: k, Rng: sim.NewRand(uint64(tag) + 9), Target: c,
			Phases: []Phase{{Rate: 10}}, Seq: &seq, Tag: tag, MaxPackets: 50}
	}
	mk(frame.TagEval).Start()
	mk(frame.TagManagement).Start()
	k.Run(30 * sim.Second)
	seen := make(map[uint32]bool)
	for _, f := range c.frames {
		if seen[f.Seq] {
			t.Fatalf("duplicate sequence number %d across sources", f.Seq)
		}
		seen[f.Seq] = true
	}
}

func TestBroadcastSourcePeriod(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{}
	b := &BroadcastSource{
		Kernel: k, Rng: sim.NewRand(4), Target: c,
		Origin: 3, Period: 2 * sim.Second,
	}
	b.Start()
	k.Run(100 * sim.Second)
	got := len(c.frames)
	if got < 42 || got > 58 {
		t.Fatalf("broadcasts = %d over 100 s at 2 s period, want ≈50", got)
	}
	f := c.frames[0]
	if !f.IsBroadcast() || f.Kind != frame.RouteDiscovery || f.Origin != 3 {
		t.Errorf("broadcast fields wrong: %+v", f)
	}
}

func TestSourcePanicsOnMissingFields(t *testing.T) {
	cases := map[string]*Source{
		"no kernel": {Rng: sim.NewRand(1), Target: &collector{}, Phases: []Phase{{Rate: 1}}},
		"no phases": {Kernel: sim.NewKernel(), Rng: sim.NewRand(1), Target: &collector{}},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			s.Start()
		})
	}
}

func TestOnGenerateSeesRejectedFrames(t *testing.T) {
	k := sim.NewKernel()
	c := &collector{reject: true}
	gen := 0
	s := &Source{
		Kernel: k, Rng: sim.NewRand(5), Target: c,
		Phases: []Phase{{Rate: 10}}, MaxPackets: 10,
		OnGenerate: func(*frame.Frame) { gen++ },
	}
	s.Start()
	k.Run(10 * sim.Second)
	if gen != 10 {
		t.Fatalf("OnGenerate fired %d times, want 10 (drops still count as offered load)", gen)
	}
}

// TestSourcesSteadyStateDoNotAllocate pins that generating traffic costs no
// heap allocation once the kernel and the frame pool are warm: arrivals,
// phase-boundary re-draws and broadcast ticks all schedule through
// long-lived kernel callbacks.
func TestSourcesSteadyStateDoNotAllocate(t *testing.T) {
	k := sim.NewKernel()
	pool := &frame.Pool{}
	sink := &collector{reject: true} // rejected frames go straight back to the pool
	src := &Source{
		Kernel: k, Rng: sim.NewRand(4), Target: sink, Pool: pool,
		Phases: []Phase{
			{Rate: 50, Duration: 300 * sim.Millisecond},
			{Rate: 0, Duration: 200 * sim.Millisecond},
		},
	}
	hello := &BroadcastSource{
		Kernel: k, Rng: sim.NewRand(5), Target: sink, Pool: pool,
		Period: 20 * sim.Millisecond,
	}
	src.Start()
	hello.Start()
	k.Run(2 * sim.Second)
	allocs := testing.AllocsPerRun(20, func() { k.Run(k.Now() + sim.Second) })
	if allocs != 0 {
		t.Errorf("one simulated second of traffic allocates %.1f objects, want 0", allocs)
	}
	if src.Generated() == 0 || hello.Generated() == 0 {
		t.Fatalf("no traffic generated: %d data, %d broadcasts", src.Generated(), hello.Generated())
	}
}
