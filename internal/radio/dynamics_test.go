package radio

import (
	"fmt"
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// This file is the safety net for the dynamics subsystem. naiveDynMedium is
// a rebuild-per-event reference: it holds no link index at all and
// recomputes receiver/sense sets from the topology predicates on every
// transmission, so churn and mobility are trivially correct there. The
// differential tests drive it and the production Medium (incremental
// O(degree) link re-classification, busy counters, sensed-set snapshots)
// through identical randomized scripts of transmissions, CCAs, retunes,
// moves, leaves/joins and fades, asserting identical delivery traces, CCA
// answers and stats.

// naiveTransmission mirrors the production bookkeeping with the receiver
// and sensed sets captured at transmission start.
type naiveTransmission struct {
	src       frame.NodeID
	f         *frame.Frame
	channel   uint8
	end       sim.Time
	corrupt   []bool
	receivers []frame.NodeID
	sensed    []frame.NodeID
}

func (t *naiveTransmission) senses(id frame.NodeID) bool {
	for _, s := range t.sensed {
		if s == id {
			return true
		}
	}
	return false
}

// naiveDynMedium recomputes everything per event: receivers and sensed sets
// by scanning all N nodes at StartTX, CCA by scanning the active set.
type naiveDynMedium struct {
	k         *sim.Kernel
	topo      Topology
	rng       *sim.Rand
	handlers  []Handler
	stats     []NodeStats
	tuned     []uint8
	txUntil   []sim.Time
	rxCount   []int
	inflight  [][]*naiveTransmission
	active    []*naiveTransmission
	present   []bool
	fadeUntil []sim.Time
	ge        *geProcess
}

func newNaiveDynMedium(k *sim.Kernel, topo Topology, rng *sim.Rand) *naiveDynMedium {
	n := topo.NumNodes()
	m := &naiveDynMedium{
		k:         k,
		topo:      topo,
		rng:       rng,
		handlers:  make([]Handler, n),
		stats:     make([]NodeStats, n),
		tuned:     make([]uint8, n),
		txUntil:   make([]sim.Time, n),
		rxCount:   make([]int, n),
		inflight:  make([][]*naiveTransmission, n),
		present:   make([]bool, n),
		fadeUntil: make([]sim.Time, n),
	}
	for i := range m.present {
		m.present[i] = true
	}
	return m
}

func (m *naiveDynMedium) cca(id frame.NodeID) bool {
	m.stats[id].CCACount++
	for _, t := range m.active {
		if t.end > m.k.Now() && t.channel == m.tuned[id] && t.senses(id) {
			m.stats[id].CCABusy++
			return false
		}
	}
	return true
}

func (m *naiveDynMedium) startTX(src frame.NodeID, f *frame.Frame) sim.Time {
	now := m.k.Now()
	dur := f.Duration()
	end := now + dur
	m.txUntil[src] = end
	m.stats[src].TxCount++
	m.stats[src].TxAirtime += dur

	t := &naiveTransmission{src: src, f: f, channel: f.Channel, end: end}
	if m.present[src] {
		for dst := 0; dst < m.topo.NumNodes(); dst++ {
			d := frame.NodeID(dst)
			if d == src || !m.present[d] {
				continue
			}
			decode, sense := classify(m.topo, src, d)
			if decode && m.tuned[d] == f.Channel {
				t.receivers = append(t.receivers, d)
				t.corrupt = append(t.corrupt, false)
			}
			if sense {
				t.sensed = append(t.sensed, d)
			}
		}
	}
	m.active = append(m.active, t)
	m.corruptAllAt(src)
	for i, r := range t.receivers {
		if m.txUntil[r] > now {
			t.corrupt[i] = true
		}
		if m.rxCount[r] > 0 {
			t.corrupt[i] = true
			m.corruptAllAt(r)
		}
		m.rxCount[r]++
		m.inflight[r] = append(m.inflight[r], t)
	}
	m.k.At(end, func() { m.endTX(t) })
	return end
}

func (m *naiveDynMedium) corruptAllAt(id frame.NodeID) {
	for _, t := range m.inflight[id] {
		for i, r := range t.receivers {
			if r == id {
				t.corrupt[i] = true
			}
		}
	}
}

func (m *naiveDynMedium) endTX(t *naiveTransmission) {
	now := m.k.Now()
	for i, a := range m.active {
		if a == t {
			m.active[i] = m.active[len(m.active)-1]
			m.active = m.active[:len(m.active)-1]
			break
		}
	}
	for i, r := range t.receivers {
		m.rxCount[r]--
		fl := m.inflight[r]
		for j, x := range fl {
			if x == t {
				fl[j] = fl[len(fl)-1]
				m.inflight[r] = fl[:len(fl)-1]
				break
			}
		}
		if t.corrupt[i] {
			m.stats[r].RxCollided++
			continue
		}
		if m.tuned[r] != t.channel {
			m.stats[r].RxCollided++
			continue
		}
		if now < m.fadeUntil[r] || now < m.fadeUntil[t.src] {
			m.stats[r].RxFaded++
			continue
		}
		if p := m.topo.DeliveryProb(t.src, r); p < 1 && !m.rng.Bool(p) {
			m.stats[r].RxFaded++
			continue
		}
		if m.ge != nil && !m.ge.deliver(t.src, r, now) {
			m.stats[r].RxFaded++
			continue
		}
		m.stats[r].RxDelivered++
		if h := m.handlers[r]; h != nil {
			h.Deliver(t.f)
		}
	}
}

// dynOp is one scripted operation, a superset of the static diffOp kinds.
type dynOp struct {
	at      sim.Time
	kind    uint8 // 0 StartTX, 1 CCA, 2 SetTuned, 3 Move, 4 Leave, 5 Join, 6 Fade
	node    frame.NodeID
	channel uint8
	bytes   int
	pos     Position
	dur     sim.Time
}

// randomDynScript draws a reproducible operation schedule mixing traffic
// with dynamics events. moves=false restricts to churn and fades (for
// topologies without positions).
func randomDynScript(rng *sim.Rand, n, ops int, side float64, moves bool) []dynOp {
	script := make([]dynOp, ops)
	at := sim.Time(0)
	for i := range script {
		at += sim.Time(rng.Intn(250))
		op := dynOp{at: at, node: frame.NodeID(rng.Intn(n))}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			op.kind = 0
			op.bytes = 5 + rng.Intn(100)
			op.channel = uint8(rng.Intn(3))
		case 4, 5:
			op.kind = 1
		case 6:
			op.kind = 2
			op.channel = uint8(rng.Intn(3))
		case 7:
			if moves {
				op.kind = 3
				// Mostly in-bounds waypoints, occasionally far outside the
				// original deployment to exercise the overflow list.
				scale := side
				if rng.Intn(4) == 0 {
					scale = 3 * side
				}
				op.pos = Position{X: rng.Float64()*scale - side/2, Y: rng.Float64()*scale - side/2}
			} else {
				op.kind = 1
			}
		case 8:
			op.kind = 4 + uint8(rng.Intn(2)) // leave or join
		default:
			op.kind = 6
			op.dur = sim.Time(100 + rng.Intn(2000))
		}
		script[i] = op
	}
	return script
}

// dynMediumDriver abstracts the two implementations for the script runner.
type dynMediumDriver struct {
	cca          func(frame.NodeID) bool
	startTX      func(frame.NodeID, *frame.Frame) sim.Time
	setTuned     func(frame.NodeID, uint8)
	transmitting func(frame.NodeID) bool
	register     func(frame.NodeID, Handler)
	stats        func(frame.NodeID) NodeStats
	move         func(frame.NodeID, Position)
	setPresent   func(frame.NodeID, bool)
	fade         func(frame.NodeID, sim.Time)
}

func runDynScript(n int, script []dynOp, drv *dynMediumDriver, k *sim.Kernel) (trace []delivery, ccaAnswers []bool, stats []NodeStats) {
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		drv.register(id, HandlerFunc(func(f *frame.Frame) {
			trace = append(trace, delivery{at: k.Now(), src: f.Src, dst: id})
		}))
	}
	for _, op := range script {
		op := op
		k.At(op.at, func() {
			switch op.kind {
			case 0:
				if drv.transmitting(op.node) {
					return
				}
				f := &frame.Frame{Kind: frame.Data, Src: op.node, Dst: frame.Broadcast,
					MPDUBytes: op.bytes, Channel: op.channel}
				drv.startTX(op.node, f)
			case 1:
				if drv.transmitting(op.node) {
					return
				}
				ccaAnswers = append(ccaAnswers, drv.cca(op.node))
			case 2:
				drv.setTuned(op.node, op.channel)
			case 3:
				drv.move(op.node, op.pos)
			case 4:
				drv.setPresent(op.node, false)
			case 5:
				drv.setPresent(op.node, true)
			case 6:
				drv.fade(op.node, k.Now()+op.dur)
			}
		})
	}
	k.RunAll()
	stats = make([]NodeStats, n)
	for i := range stats {
		stats[i] = drv.stats(frame.NodeID(i))
	}
	return trace, ccaAnswers, stats
}

func indexedDynDriver(k *sim.Kernel, topo Topology, seed uint64, ge GilbertElliott, geSeed uint64) *dynMediumDriver {
	m := NewMedium(k, topo, sim.NewRand(seed))
	if ge.Enabled() {
		m.SetGilbertElliott(ge, geSeed)
	}
	return &dynMediumDriver{
		cca: m.CCA, setTuned: m.SetTuned,
		startTX:      func(id frame.NodeID, f *frame.Frame) sim.Time { return m.StartTX(id, f, 0) },
		transmitting: m.Transmitting, register: m.Attach, stats: m.Stats,
		move:       m.MoveNode,
		setPresent: m.SetPresent,
		fade:       m.SetFadeUntil,
	}
}

func naiveDynDriver(k *sim.Kernel, topo Topology, seed uint64, ge GilbertElliott, geSeed uint64) *dynMediumDriver {
	m := newNaiveDynMedium(k, topo, sim.NewRand(seed))
	if ge.Enabled() {
		m.ge = newGEProcess(ge, geSeed)
	}
	return &dynMediumDriver{
		cca: m.cca, startTX: m.startTX,
		setTuned:     func(id frame.NodeID, ch uint8) { m.tuned[id] = ch },
		transmitting: func(id frame.NodeID) bool { return m.txUntil[id] > k.Now() },
		register:     func(id frame.NodeID, h Handler) { m.handlers[id] = h },
		stats:        func(id frame.NodeID) NodeStats { return m.stats[id] },
		move: func(id frame.NodeID, p Position) {
			if pt, ok := topo.(*PathLossTopology); ok {
				pt.MoveNode(id, p)
			}
		},
		setPresent: func(id frame.NodeID, present bool) { m.present[id] = present },
		fade: func(id frame.NodeID, until sim.Time) {
			if until > m.fadeUntil[id] {
				m.fadeUntil[id] = until
			}
		},
	}
}

func compareDynRuns(t *testing.T, label string, n int, script []dynOp,
	mkTopo func() Topology, seed uint64, ge GilbertElliott) {
	t.Helper()
	topoA, topoB := mkTopo(), mkTopo()
	kA, kB := sim.NewKernel(), sim.NewKernel()
	trace1, cca1, stats1 := runDynScript(n, script, naiveDynDriver(kA, topoA, seed, ge, seed+77), kA)
	trace2, cca2, stats2 := runDynScript(n, script, indexedDynDriver(kB, topoB, seed, ge, seed+77), kB)
	if len(cca1) != len(cca2) {
		t.Fatalf("%s: CCA answer count %d vs %d", label, len(cca1), len(cca2))
	}
	for i := range cca1 {
		if cca1[i] != cca2[i] {
			t.Fatalf("%s: CCA answer %d: naive %v, indexed %v", label, i, cca1[i], cca2[i])
		}
	}
	if len(trace1) != len(trace2) {
		t.Fatalf("%s: delivery trace length %d vs %d", label, len(trace1), len(trace2))
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("%s: delivery %d: naive %+v, indexed %+v", label, i, trace1[i], trace2[i])
		}
	}
	for i := range stats1 {
		if stats1[i] != stats2[i] {
			t.Fatalf("%s: node %d stats: naive %+v, indexed %+v", label, i, stats1[i], stats2[i])
		}
	}
}

// TestDifferentialChurnGraphMedium drives node leave/rejoin and fades on
// explicit graphs through both implementations — the acceptance test for
// mid-run churn against a rebuild-per-event reference.
func TestDifferentialChurnGraphMedium(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := sim.NewRand(uint64(4000 + trial))
		n := 3 + rng.Intn(20)
		g := randomGraph(rng, n, 0.1+rng.Float64()*0.6)
		g.LossProb = float64(rng.Intn(3)) * 0.25
		script := randomDynScript(rng, n, 500, 0, false)
		compareDynRuns(t, fmt.Sprintf("graph churn trial %d (n=%d)", trial, n), n, script,
			func() Topology {
				g2 := NewGraphTopology(n)
				for i := 0; i < n; i++ {
					for _, j := range g.AppendLinks(frame.NodeID(i), nil) {
						g2.AddLink(frame.NodeID(i), j)
					}
				}
				g2.LossProb = g.LossProb
				return g2
			}, uint64(trial), GilbertElliott{})
	}
}

// TestDifferentialMobilityPathLossMedium adds waypoint moves (including
// out-of-bounds excursions) and the Gilbert–Elliott process on path-loss
// topologies.
func TestDifferentialMobilityPathLossMedium(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := sim.NewRand(uint64(5000 + trial))
		n := 3 + rng.Intn(25)
		cfg := DefaultPathLossConfig()
		cfg.FadingLossProb = float64(rng.Intn(3)) * 0.2
		if trial%2 == 0 {
			cfg.ShadowSigmaDB = 4
			cfg.ShadowSeed = uint64(trial)
		}
		side := 40.0
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		var ge GilbertElliott
		if trial%3 == 0 {
			ge = GilbertElliott{
				MeanGood: 50 * sim.Millisecond,
				MeanBad:  10 * sim.Millisecond,
				LossBad:  0.9,
			}
		}
		script := randomDynScript(rng, n, 500, side, true)
		compareDynRuns(t, fmt.Sprintf("mobility trial %d (n=%d)", trial, n), n, script,
			func() Topology { return NewPathLossTopology(cfg, append([]Position(nil), pos...)) },
			uint64(trial), ge)
	}
}

// TestIncrementalLinkRowsMatchRebuild applies random dynamics events to a
// live medium and, after every event, compares its incrementally maintained
// link rows against a naive full re-classification over the current
// topology state — the structural half of the rebuild-per-event reference.
func TestIncrementalLinkRowsMatchRebuild(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := sim.NewRand(uint64(6000 + trial))
		n := 5 + rng.Intn(30)
		cfg := DefaultPathLossConfig()
		if trial%2 == 1 {
			cfg.ShadowSigmaDB = 5
			cfg.ShadowSeed = uint64(trial)
		}
		side := 60.0
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		pt := NewPathLossTopology(cfg, pos)
		m := NewMedium(sim.NewKernel(), pt, sim.NewRand(1))
		present := make([]bool, n)
		for i := range present {
			present[i] = true
		}
		for ev := 0; ev < 60; ev++ {
			id := frame.NodeID(rng.Intn(n))
			switch rng.Intn(4) {
			case 0, 1:
				p := Position{X: rng.Float64()*2*side - side/2, Y: rng.Float64()*2*side - side/2}
				m.MoveNode(id, p)
			case 2:
				m.SetPresent(id, false)
				present[id] = false
			default:
				m.SetPresent(id, true)
				present[id] = true
			}
			assertRowsMatchRebuild(t, fmt.Sprintf("trial %d event %d", trial, ev), m, pt, present)
		}
	}
}

// assertRowsMatchRebuild compares every link row of m against a naive full
// re-classification over the present nodes of topo.
func assertRowsMatchRebuild(t *testing.T, label string, m *Medium, topo Topology, present []bool) {
	t.Helper()
	n := topo.NumNodes()
	for src := 0; src < n; src++ {
		s := frame.NodeID(src)
		var wantDecode, wantSense []frame.NodeID
		if present[src] {
			for dst := 0; dst < n; dst++ {
				d := frame.NodeID(dst)
				if d == s || !present[dst] {
					continue
				}
				decode, sense := classify(topo, s, d)
				if decode {
					wantDecode = append(wantDecode, d)
				}
				if sense {
					wantSense = append(wantSense, d)
				}
			}
		}
		if !equalIDs(m.DecodeNeighbors(s), wantDecode) {
			t.Fatalf("%s: decode row of %d = %v, rebuild %v",
				label, src, m.DecodeNeighbors(s), wantDecode)
		}
		if !equalIDs(m.SenseNeighbors(s), wantSense) {
			t.Fatalf("%s: sense row of %d = %v, rebuild %v",
				label, src, m.SenseNeighbors(s), wantSense)
		}
	}
}

// TestMoveNodeGridEdgeBands pins the storageCell binning rule at the grid
// boundary: movers landing within one cell outside the original bounding
// box must go to the overflow list, not be clamped into the last column or
// row — clamping would park them a cell away from where range queries look
// and silently drop decodable links (a bug an earlier draft had).
func TestMoveNodeGridEdgeBands(t *testing.T) {
	// 11×11 lattice over [0,100]²; default config gives ~5.8 m range, so
	// the grid is many cells wide and reach is small.
	var pos []Position
	for y := 0.0; y <= 100; y += 10 {
		for x := 0.0; x <= 100; x += 10 {
			pos = append(pos, Position{X: x, Y: y})
		}
	}
	n := len(pos)
	pt := NewPathLossTopology(DefaultPathLossConfig(), pos)
	m := NewMedium(sim.NewKernel(), pt, sim.NewRand(1))
	present := make([]bool, n)
	for i := range present {
		present[i] = true
	}
	cell := pt.grid.cell
	// Probe offsets in cells beyond each edge: inside the last cell, in
	// the one-cell band just outside (the regression case), and far out.
	offsets := []float64{-0.4, 0.2, 0.7, 1.3, 2.5}
	edges := []func(off float64) Position{
		func(off float64) Position { return Position{X: 100 + off*cell, Y: 50} }, // right
		func(off float64) Position { return Position{X: -off * cell, Y: 50} },    // left
		func(off float64) Position { return Position{X: 50, Y: 100 + off*cell} }, // top
		func(off float64) Position { return Position{X: 50, Y: -off * cell} },    // bottom
	}
	a, b := frame.NodeID(0), frame.NodeID(1)
	for ei, edge := range edges {
		for _, off := range offsets {
			p := edge(off)
			m.MoveNode(a, p)
			// Partner just inside decode range of a, towards the lattice.
			q := Position{X: p.X * 0.97, Y: p.Y * 0.97}
			m.MoveNode(b, q)
			if Decodes(pt, a, b) != containsID(m.DecodeNeighbors(a), b) {
				t.Fatalf("edge %d off %.1f: decode row disagrees with predicate", ei, off)
			}
			assertRowsMatchRebuild(t, fmt.Sprintf("edge %d off %.1f", ei, off), m, pt, present)
		}
	}
}

func containsID(s []frame.NodeID, id frame.NodeID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

func equalIDs(a, b []frame.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBusyCountersBalanceUnderChurn pins the counter consistency claim: a
// script full of mid-flight leaves, rejoins and moves must leave every busy
// counter at exactly zero once the air clears.
func TestBusyCountersBalanceUnderChurn(t *testing.T) {
	rng := sim.NewRand(99)
	n := 12
	side := 30.0
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	pt := NewPathLossTopology(DefaultPathLossConfig(), pos)
	k := sim.NewKernel()
	m := NewMedium(k, pt, sim.NewRand(1))
	for i := 0; i < n; i++ {
		m.Attach(frame.NodeID(i), HandlerFunc(func(*frame.Frame) {}))
	}
	script := randomDynScript(rng, n, 800, side, true)
	drv := &dynMediumDriver{
		cca: m.CCA, setTuned: m.SetTuned,
		startTX:      func(id frame.NodeID, f *frame.Frame) sim.Time { return m.StartTX(id, f, 0) },
		transmitting: m.Transmitting,
		register:     func(frame.NodeID, Handler) {},
		stats:        m.Stats,
		move:         m.MoveNode, setPresent: m.SetPresent, fade: m.SetFadeUntil,
	}
	runDynScript(0, script, drv, k)
	for i, per := range m.busy {
		for ch, c := range per {
			if c != 0 {
				t.Fatalf("busy[%d][%d] = %d after the air cleared", i, ch, c)
			}
		}
	}
}

// TestGilbertElliottStatistics checks the lazily sampled process against its
// analytic stationary behaviour: the long-run loss rate of regularly spaced
// frames approaches πBad·LossBad, and losses are bursty (the loss rate
// immediately after a loss is well above the stationary rate).
func TestGilbertElliottStatistics(t *testing.T) {
	cfg := GilbertElliott{
		MeanGood: 900 * sim.Millisecond,
		MeanBad:  100 * sim.Millisecond,
		LossBad:  1,
	}
	p := newGEProcess(cfg, 42)
	const frames = 200_000
	gap := 5 * sim.Millisecond
	losses, afterLoss, afterLossLost := 0, 0, 0
	prevLost := false
	for i := 0; i < frames; i++ {
		ok := p.deliver(0, 1, sim.Time(i)*gap)
		if prevLost {
			afterLoss++
			if !ok {
				afterLossLost++
			}
		}
		if !ok {
			losses++
		}
		prevLost = !ok
	}
	rate := float64(losses) / frames
	if math.Abs(rate-0.1) > 0.02 {
		t.Fatalf("stationary loss rate %.4f, want ≈ πBad·LossBad = 0.10", rate)
	}
	burst := float64(afterLossLost) / float64(afterLoss)
	// With a 100 ms bad state sampled every 5 ms, the chain stays bad with
	// probability ≈ e^{-(λg+λb)·5ms} ≈ 0.95 — far above the 0.1 stationary
	// rate. Anything above 0.5 proves burstiness.
	if burst < 0.5 {
		t.Fatalf("loss rate right after a loss is %.3f — not bursty", burst)
	}
}

// TestGilbertElliottDeterminism pins that two processes with identical seed
// and config produce identical loss sequences, and that distinct links use
// independent streams.
func TestGilbertElliottDeterminism(t *testing.T) {
	cfg := GilbertElliott{MeanGood: 200 * sim.Millisecond, MeanBad: 50 * sim.Millisecond, LossBad: 0.8}
	a, b := newGEProcess(cfg, 7), newGEProcess(cfg, 7)
	var seqA, seqB, seqOther []bool
	for i := 0; i < 5000; i++ {
		at := sim.Time(i) * 3 * sim.Millisecond
		seqA = append(seqA, a.deliver(2, 5, at))
		seqB = append(seqB, b.deliver(5, 2, at)) // unordered key: same link
		seqOther = append(seqOther, a.deliver(2, 6, at))
	}
	same, diff := true, true
	for i := range seqA {
		if seqA[i] != seqB[i] {
			same = false
		}
		if seqA[i] != seqOther[i] {
			diff = false
		}
	}
	if !same {
		t.Fatal("same link, same seed: sequences diverge")
	}
	if diff {
		t.Fatal("distinct links produced identical sequences — streams not independent")
	}
}
