package radio

import (
	"testing"
	"testing/quick"

	"qma/internal/frame"
	"qma/internal/sim"
)

// rig builds a kernel+medium over an explicit graph and collects deliveries.
type rig struct {
	k     *sim.Kernel
	m     *Medium
	recvd map[frame.NodeID][]*frame.Frame
}

func newRig(t *testing.T, n int, links [][2]int) *rig {
	t.Helper()
	g := NewGraphTopology(n)
	for _, l := range links {
		g.AddLink(frame.NodeID(l[0]), frame.NodeID(l[1]))
	}
	k := sim.NewKernel()
	r := &rig{k: k, m: NewMedium(k, g, sim.NewRand(1)), recvd: make(map[frame.NodeID][]*frame.Frame)}
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		r.m.Attach(id, HandlerFunc(func(f *frame.Frame) {
			r.recvd[id] = append(r.recvd[id], f)
		}))
	}
	return r
}

func dataFrame(src frame.NodeID, ch uint8) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: frame.Broadcast, MPDUBytes: 20, Channel: ch}
}

func TestDeliveryToDecodeNeighbors(t *testing.T) {
	r := newRig(t, 3, [][2]int{{0, 1}, {1, 2}}) // chain: 0-1-2
	r.m.StartTX(0, dataFrame(0, 0), 0)
	r.k.RunAll()
	if len(r.recvd[1]) != 1 {
		t.Errorf("node 1 received %d frames, want 1", len(r.recvd[1]))
	}
	if len(r.recvd[2]) != 0 {
		t.Errorf("node 2 received %d frames, want 0 (out of range)", len(r.recvd[2]))
	}
	st := r.m.Stats(1)
	if st.RxDelivered != 1 || st.RxCollided != 0 {
		t.Errorf("stats at 1: %+v", st)
	}
}

func TestOverlappingTransmissionsCollide(t *testing.T) {
	r := newRig(t, 3, [][2]int{{0, 1}, {1, 2}}) // hidden pair 0,2 at 1
	r.m.StartTX(0, dataFrame(0, 0), 0)
	r.k.Schedule(frame.AirTime(20)/2, func() { r.m.StartTX(2, dataFrame(2, 0), 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 0 {
		t.Errorf("node 1 decoded %d frames despite the collision", len(r.recvd[1]))
	}
	if st := r.m.Stats(1); st.RxCollided != 2 {
		t.Errorf("RxCollided = %d, want 2", st.RxCollided)
	}
}

func TestBackToBackTransmissionsDoNotCollide(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	f := dataFrame(0, 0)
	end := r.m.StartTX(0, f, 0)
	r.k.At(end, func() { r.m.StartTX(0, dataFrame(0, 0), 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 2 {
		t.Errorf("node 1 received %d frames, want 2", len(r.recvd[1]))
	}
}

func TestHalfDuplexReceiverLosesFrame(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	// Node 1 starts transmitting; node 0's simultaneous frame is lost at 1.
	r.m.StartTX(1, dataFrame(1, 0), 0)
	r.m.StartTX(0, dataFrame(0, 0), 0)
	r.k.RunAll()
	if len(r.recvd[1]) != 0 {
		t.Errorf("transmitting node decoded a frame")
	}
	// Node 0 also cannot decode node 1's frame: it transmitted during it.
	if len(r.recvd[0]) != 0 {
		t.Errorf("node 0 decoded while transmitting")
	}
}

func TestCCASensesOnlyTunedChannel(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	r.m.StartTX(0, dataFrame(0, 3), 0)
	if !r.m.CCA(1) {
		t.Error("CCA on channel 0 busy although the transmission is on channel 3")
	}
	r.m.SetTuned(1, 3)
	if r.m.CCA(1) {
		t.Error("CCA on channel 3 clear although a transmission is active")
	}
	st := r.m.Stats(1)
	if st.CCACount != 2 || st.CCABusy != 1 {
		t.Errorf("CCA stats: %+v", st)
	}
}

func TestChannelSeparation(t *testing.T) {
	r := newRig(t, 3, [][2]int{{0, 1}, {2, 1}})
	// Two same-time transmissions on different channels; the receiver tuned
	// to channel 2 decodes only that one.
	r.m.SetTuned(1, 2)
	r.m.StartTX(0, dataFrame(0, 2), 0)
	r.m.StartTX(2, dataFrame(2, 5), 0)
	r.k.RunAll()
	if len(r.recvd[1]) != 1 || r.recvd[1][0].Src != 0 {
		t.Errorf("node 1 received %v, want exactly the channel-2 frame", r.recvd[1])
	}
}

func TestRetuningAwayLosesFrame(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	r.m.SetTuned(1, 4)
	r.m.StartTX(0, dataFrame(0, 4), 0)
	// Receiver retunes away mid-flight.
	r.k.Schedule(10, func() { r.m.SetTuned(1, 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 0 {
		t.Error("frame decoded despite the receiver retuning away")
	}
}

func TestFadingLoss(t *testing.T) {
	g := NewGraphTopology(2)
	g.AddLink(0, 1)
	g.LossProb = 1 // always fade
	k := sim.NewKernel()
	m := NewMedium(k, g, sim.NewRand(1))
	got := 0
	m.Attach(0, HandlerFunc(func(*frame.Frame) {}))
	m.Attach(1, HandlerFunc(func(*frame.Frame) { got++ }))
	m.StartTX(0, dataFrame(0, 0), 0)
	k.RunAll()
	if got != 0 {
		t.Errorf("frame delivered despite LossProb=1")
	}
	if st := m.Stats(1); st.RxFaded != 1 {
		t.Errorf("RxFaded = %d, want 1", st.RxFaded)
	}
}

func TestStartTXWhileTransmittingPanics(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	r.m.StartTX(0, dataFrame(0, 0), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overlapping TX at one node")
		}
	}()
	r.m.StartTX(0, dataFrame(0, 0), 0)
}

func TestPathLossTopologyLinkBudget(t *testing.T) {
	cfg := DefaultPathLossConfig() // -9 dBm TX, -72 dBm sensitivity, exponent 3
	pos := []Position{{0, 0}, {5, 0}, {100, 0}}
	pt := NewPathLossTopology(cfg, pos)
	// 5 m: loss = 40 + 30*log10(5) ≈ 61 dB → RSSI ≈ -70 dBm > -72: decodable.
	if !Decodes(pt, 0, 1) {
		t.Errorf("5 m link should decode (RSSI %.1f)", pt.rssi(0, 1))
	}
	// 100 m: loss = 40 + 60 = 100 dB → RSSI -109: dead.
	if Decodes(pt, 0, 2) {
		t.Errorf("100 m link should not decode (RSSI %.1f)", pt.rssi(0, 2))
	}
	// Sensing threshold sits CCAMarginDB above sensitivity.
	if _, sense := classify(pt, 0, 1); sense != (pt.rssi(0, 1) >= cfg.SensitivityDBm+cfg.CCAMarginDB) {
		t.Error("sense predicate inconsistent with margin")
	}
	// No self-links.
	if Decodes(pt, 1, 1) {
		t.Error("self-link decodable")
	}
}

func TestPathLossSymmetryProperty(t *testing.T) {
	cfg := DefaultPathLossConfig()
	cfg.ShadowSigmaDB = 4
	cfg.ShadowSeed = 99
	prop := func(ax, ay, bx, by int8) bool {
		pos := []Position{{float64(ax), float64(ay)}, {float64(bx), float64(by)}}
		pt := NewPathLossTopology(cfg, pos)
		// Frozen shadowing must be symmetric per link.
		return pt.rssi(0, 1) == pt.rssi(1, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMediumTransmitSteadyStateDoesNotAllocate pins the transmit cycle —
// StartTX, then Kernel.Run to the frame's end (busy retirement, delivery)
// — at zero allocations on a path-loss medium, both fresh and after churn
// and mobility have edited the link rows in place.
func TestMediumTransmitSteadyStateDoesNotAllocate(t *testing.T) {
	const side = 4 // a 4×4 grid 2 m apart, inside the ~5.8 m decode range
	pos := make([]Position, 0, side*side)
	for i := 0; i < side*side; i++ {
		pos = append(pos, Position{X: float64(i%side) * 2, Y: float64(i/side) * 2})
	}
	pt := NewPathLossTopology(DefaultPathLossConfig(), pos)
	k := sim.NewKernel()
	m := NewMedium(k, pt, sim.NewRand(1))
	n := pt.NumNodes()
	for i := 0; i < n; i++ {
		m.Attach(frame.NodeID(i), HandlerFunc(func(*frame.Frame) {}))
	}
	f := &frame.Frame{Kind: frame.Data, Dst: frame.Broadcast, MPDUBytes: 50}
	src := 0
	cycle := func() {
		f.Src = frame.NodeID(src % n)
		src++
		k.Run(m.StartTX(f.Src, f, 0))
	}
	check := func(label string) {
		t.Helper()
		for i := 0; i < n; i++ { // grow every pooled slice to its high-water mark
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per transmit cycle, want 0", label, allocs)
		}
	}
	check("fresh")
	if len(m.DecodeNeighbors(5)) == 0 {
		t.Fatal("degenerate topology: node 5 decodes nobody")
	}
	m.SetPresent(5, false)
	m.SetPresent(5, true)
	m.MoveNode(6, Position{X: 5, Y: 1})
	check("after churn and mobility")
}
