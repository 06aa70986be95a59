package radio

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// This file keeps a faithful port of the pre-spatial-index medium — dense
// N×N sense matrix, CCA by scanning the global active set — as a test-only
// reference implementation, and drives it and the production Medium through
// identical randomized scripts asserting identical per-node NodeStats,
// identical delivery traces and identical CCA answers. It is the safety net
// for the O(N + E) refactor: any behavioural drift in the per-node link rows,
// the busy counters or the early-event expiry shows up as a trace diff.

// denseTransmission mirrors the old transmission bookkeeping.
type denseTransmission struct {
	src       frame.NodeID
	f         *frame.Frame
	channel   uint8
	end       sim.Time
	corrupt   []bool
	receivers []frame.NodeID
}

// denseMedium is the old O(N²)-memory medium: precomputed decode lists, a
// boolean sense matrix and CCA as a linear scan over ongoing transmissions.
type denseMedium struct {
	k          *sim.Kernel
	topo       Topology
	rng        *sim.Rand
	handlers   []Handler
	stats      []NodeStats
	tuned      []uint8
	txUntil    []sim.Time
	rxCount    []int
	inflight   [][]*denseTransmission
	active     []*denseTransmission
	decodeNbrs [][]frame.NodeID
	senseNbrs  [][]bool
}

func newDenseMedium(k *sim.Kernel, topo Topology, rng *sim.Rand) *denseMedium {
	n := topo.NumNodes()
	m := &denseMedium{
		k:          k,
		topo:       topo,
		rng:        rng,
		handlers:   make([]Handler, n),
		stats:      make([]NodeStats, n),
		tuned:      make([]uint8, n),
		txUntil:    make([]sim.Time, n),
		rxCount:    make([]int, n),
		inflight:   make([][]*denseTransmission, n),
		decodeNbrs: make([][]frame.NodeID, n),
		senseNbrs:  make([][]bool, n),
	}
	for src := 0; src < n; src++ {
		m.senseNbrs[src] = make([]bool, n)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			d := frame.NodeID(dst)
			decode, sense := classify(topo, frame.NodeID(src), d)
			if decode {
				m.decodeNbrs[src] = append(m.decodeNbrs[src], d)
			}
			m.senseNbrs[src][dst] = sense
		}
	}
	return m
}

func (m *denseMedium) attach(id frame.NodeID, h Handler) { m.handlers[id] = h }

func (m *denseMedium) cca(id frame.NodeID) bool {
	m.stats[id].CCACount++
	for _, t := range m.active {
		if t.end > m.k.Now() && t.channel == m.tuned[id] && m.senseNbrs[t.src][id] {
			m.stats[id].CCABusy++
			return false
		}
	}
	return true
}

func (m *denseMedium) startTX(src frame.NodeID, f *frame.Frame) sim.Time {
	now := m.k.Now()
	dur := f.Duration()
	end := now + dur
	m.txUntil[src] = end
	m.stats[src].TxCount++
	m.stats[src].TxAirtime += dur

	t := &denseTransmission{src: src, f: f, channel: f.Channel, end: end}
	for _, r := range m.decodeNbrs[src] {
		if m.tuned[r] == f.Channel {
			t.receivers = append(t.receivers, r)
			t.corrupt = append(t.corrupt, false)
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
	atFunc(m.k, end, func() { m.endTX(t) })
	return end
}

func (m *denseMedium) corruptAllAt(id frame.NodeID) {
	for _, t := range m.inflight[id] {
		for i, r := range t.receivers {
			if r == id {
				t.corrupt[i] = true
			}
		}
	}
}

func (m *denseMedium) endTX(t *denseTransmission) {
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
		if p := m.topo.DeliveryProb(t.src, r); p < 1 && !m.rng.Bool(p) {
			m.stats[r].RxFaded++
			continue
		}
		m.stats[r].RxDelivered++
		if h := m.handlers[r]; h != nil {
			h.Deliver(t.f)
		}
	}
}

// delivery is one trace entry: who decoded whose frame at what time.
type delivery struct {
	at       sim.Time
	src, dst frame.NodeID
}

// diffOp is one scripted medium operation.
type diffOp struct {
	at      sim.Time
	kind    uint8 // 0 = StartTX, 1 = CCA, 2 = SetTuned
	node    frame.NodeID
	channel uint8
	bytes   int
}

// randomScript draws a reproducible operation schedule. TX lengths and
// timing are chosen so transmissions frequently overlap and CCA instants
// frequently coincide exactly with transmission ends (the boundary the
// early-event expiry must get right).
func randomScript(rng *sim.Rand, n, ops int) []diffOp {
	script := make([]diffOp, ops)
	at := sim.Time(0)
	for i := range script {
		at += sim.Time(rng.Intn(200)) // dense enough to overlap 32-640 symbol frames
		op := diffOp{at: at, node: frame.NodeID(rng.Intn(n))}
		switch rng.Intn(4) {
		case 0, 1:
			op.kind = 0
			op.bytes = 5 + rng.Intn(100)
			op.channel = uint8(rng.Intn(3))
		case 2:
			op.kind = 1
		default:
			op.kind = 2
			op.channel = uint8(rng.Intn(3))
		}
		script[i] = op
	}
	return script
}

// runScript drives one medium implementation through the script and returns
// the delivery trace, the CCA answers and the final stats.
func runScript(topo Topology, seed uint64, script []diffOp,
	attach func(k *sim.Kernel, rng *sim.Rand) (
		cca func(frame.NodeID) bool,
		startTX func(frame.NodeID, *frame.Frame) sim.Time,
		setTuned func(frame.NodeID, uint8),
		transmitting func(frame.NodeID) bool,
		register func(frame.NodeID, Handler),
		stats func(frame.NodeID) NodeStats,
	),
) (trace []delivery, ccaAnswers []bool, stats []NodeStats) {
	k := sim.NewKernel()
	cca, startTX, setTuned, transmitting, register, stat := attach(k, sim.NewRand(seed))
	n := topo.NumNodes()
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		register(id, HandlerFunc(func(f *frame.Frame) {
			trace = append(trace, delivery{at: k.Now(), src: f.Src, dst: id})
		}))
	}
	for _, op := range script {
		op := op
		atFunc(k, op.at, func() {
			switch op.kind {
			case 0:
				if transmitting(op.node) {
					return
				}
				f := &frame.Frame{Kind: frame.Data, Src: op.node, Dst: frame.Broadcast,
					MPDUBytes: op.bytes, Channel: op.channel}
				startTX(op.node, f)
			case 1:
				if transmitting(op.node) {
					return
				}
				ccaAnswers = append(ccaAnswers, cca(op.node))
			case 2:
				setTuned(op.node, op.channel)
			}
		})
	}
	k.Run(sim.Never)
	stats = make([]NodeStats, n)
	for i := range stats {
		stats[i] = stat(frame.NodeID(i))
	}
	return trace, ccaAnswers, stats
}

func runScriptIndexed(topo Topology, seed uint64, script []diffOp) ([]delivery, []bool, []NodeStats) {
	return runScript(topo, seed, script, func(k *sim.Kernel, rng *sim.Rand) (
		func(frame.NodeID) bool, func(frame.NodeID, *frame.Frame) sim.Time,
		func(frame.NodeID, uint8), func(frame.NodeID) bool,
		func(frame.NodeID, Handler), func(frame.NodeID) NodeStats,
	) {
		m := NewMedium(k, topo, rng)
		startTX := func(id frame.NodeID, f *frame.Frame) sim.Time { return m.StartTX(id, f, 0) }
		return m.CCA, startTX, m.SetTuned, m.Transmitting, m.Attach, m.Stats
	})
}

func runScriptDense(topo Topology, seed uint64, script []diffOp) ([]delivery, []bool, []NodeStats) {
	return runScript(topo, seed, script, func(k *sim.Kernel, rng *sim.Rand) (
		func(frame.NodeID) bool, func(frame.NodeID, *frame.Frame) sim.Time,
		func(frame.NodeID, uint8), func(frame.NodeID) bool,
		func(frame.NodeID, Handler), func(frame.NodeID) NodeStats,
	) {
		m := newDenseMedium(k, topo, rng)
		transmitting := func(id frame.NodeID) bool { return m.txUntil[id] > k.Now() }
		stats := func(id frame.NodeID) NodeStats { return m.stats[id] }
		return m.cca, m.startTX, m.tune, transmitting, m.attach, stats
	})
}

func (m *denseMedium) tune(id frame.NodeID, ch uint8) { m.tuned[id] = ch }

func compareRuns(t *testing.T, label string, topo Topology, seed uint64, script []diffOp) {
	t.Helper()
	trace1, cca1, stats1 := runScriptDense(topo, seed, script)
	trace2, cca2, stats2 := runScriptIndexed(topo, seed, script)
	if len(cca1) != len(cca2) {
		t.Fatalf("%s: CCA answer count %d vs %d", label, len(cca1), len(cca2))
	}
	for i := range cca1 {
		if cca1[i] != cca2[i] {
			t.Fatalf("%s: CCA answer %d: dense %v, indexed %v", label, i, cca1[i], cca2[i])
		}
	}
	if len(trace1) != len(trace2) {
		t.Fatalf("%s: delivery trace length %d vs %d", label, len(trace1), len(trace2))
	}
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("%s: delivery %d: dense %+v, indexed %+v", label, i, trace1[i], trace2[i])
		}
	}
	for i := range stats1 {
		if stats1[i] != stats2[i] {
			t.Fatalf("%s: node %d stats: dense %+v, indexed %+v", label, i, stats1[i], stats2[i])
		}
	}
}

// randomGraph draws an Erdős–Rényi-ish graph with the given edge probability.
func randomGraph(rng *sim.Rand, n int, p float64) *GraphTopology {
	g := NewGraphTopology(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddLink(frame.NodeID(i), frame.NodeID(j))
			}
		}
	}
	return g
}

func TestDifferentialGraphMedium(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := sim.NewRand(uint64(1000 + trial))
		n := 3 + rng.Intn(20)
		g := randomGraph(rng, n, 0.1+rng.Float64()*0.6)
		g.LossProb = float64(rng.Intn(3)) * 0.25
		script := randomScript(rng, n, 400)
		compareRuns(t, fmt.Sprintf("graph trial %d (n=%d)", trial, n), g, uint64(trial), script)
	}
}

func TestDifferentialPathLossMedium(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := sim.NewRand(uint64(2000 + trial))
		n := 3 + rng.Intn(30)
		cfg := DefaultPathLossConfig()
		cfg.FadingLossProb = float64(rng.Intn(3)) * 0.2
		if trial%2 == 0 {
			cfg.ShadowSigmaDB = 4
			cfg.ShadowSeed = uint64(trial)
		}
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		}
		pt := NewPathLossTopology(cfg, pos)
		script := randomScript(rng, n, 400)
		compareRuns(t, fmt.Sprintf("pathloss trial %d (n=%d)", trial, n), pt, uint64(trial), script)
	}
}

// TestDifferentialCCAAtExactTransmissionEnd pins the boundary the busy
// counters must reproduce: a CCA at exactly a transmission's end instant,
// scheduled before the transmission started, must report the channel clear
// (the old scan's strict `end > now`).
func TestDifferentialCCAAtExactTransmissionEnd(t *testing.T) {
	g := NewGraphTopology(2)
	g.AddLink(0, 1)
	k := sim.NewKernel()
	m := NewMedium(k, g, sim.NewRand(1))
	m.Attach(0, HandlerFunc(func(*frame.Frame) {}))
	m.Attach(1, HandlerFunc(func(*frame.Frame) {}))
	f := dataFrame(0, 0)
	end := frame.AirTime(f.MPDUBytes)
	var midBusy, atEndClear bool
	// The CCA probes are scheduled before StartTX runs, so their heap
	// sequence numbers are lower than the busy-expiry event's.
	atFunc(k, end/2, func() { midBusy = !m.CCA(1) })
	atFunc(k, end, func() { atEndClear = m.CCA(1) })
	atFunc(k, 0, func() { m.StartTX(0, f, 0) })
	k.Run(sim.Never)
	if !midBusy {
		t.Error("CCA mid-transmission reported clear")
	}
	if !atEndClear {
		t.Error("CCA at the exact transmission end reported busy")
	}
}

// TestPathLossTopologyMatchesDenseMatrix cross-checks the on-demand RSSI and
// the grid-backed neighbor enumeration against a brute-force dense matrix.
func TestPathLossTopologyMatchesDenseMatrix(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := sim.NewRand(uint64(3000 + trial))
		n := 2 + rng.Intn(40)
		cfg := DefaultPathLossConfig()
		switch trial % 3 {
		case 1:
			cfg.ShadowSigmaDB = 6
			cfg.ShadowSeed = uint64(trial * 7)
		case 2:
			cfg.TxPowerDBm = 3
			cfg.SensitivityDBm = -90
		}
		side := 5 + rng.Float64()*200
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		pt := NewPathLossTopology(cfg, pos)

		// Dense reference, computed exactly as the old matrix fill did.
		rssi := make([][]float64, n)
		for i := 0; i < n; i++ {
			rssi[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				if i == j {
					rssi[i][j] = math.Inf(1)
					continue
				}
				d := pos[i].Distance(pos[j])
				if d < 0.1 {
					d = 0.1
				}
				pl := cfg.ReferenceLossDB + 10*cfg.PathLossExponent*math.Log10(d)
				rssi[i][j] = cfg.TxPowerDBm - pl + pt.shadow(i, j)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				si, sj := frame.NodeID(i), frame.NodeID(j)
				if got := pt.rssi(si, sj); i != j && got != rssi[i][j] {
					t.Fatalf("trial %d: rssi(%d,%d) = %v, dense %v", trial, i, j, got, rssi[i][j])
				}
				wantDecode := i != j && rssi[i][j] >= cfg.SensitivityDBm
				wantSense := i != j && rssi[i][j] >= cfg.SensitivityDBm+cfg.CCAMarginDB
				if decode, sense := classify(pt, si, sj); decode != wantDecode || sense != wantSense {
					t.Fatalf("trial %d: link (%d,%d) decode/sense = %v/%v, dense %v/%v",
						trial, i, j, decode, sense, wantDecode, wantSense)
				}
			}
			// The grid enumeration must contain every decodable/sensable dst.
			checkLinkAgreement(t, fmt.Sprintf("trial %d", trial), pt, frame.NodeID(i))
		}
	}
}

// checkLinkAgreement fails unless AppendLinks(src) is strictly ascending,
// excludes src and contains every dst whose LinkSignal decode or sense
// margin is non-negative — the superset the Medium's link build filters.
// Since src is never a candidate, a self-link with a non-negative margin
// fails too.
func checkLinkAgreement(t *testing.T, label string, topo Topology, src frame.NodeID) {
	t.Helper()
	links := topo.AppendLinks(src, nil)
	member := make(map[frame.NodeID]bool, len(links))
	for k, id := range links {
		member[id] = true
		if id == src || (k > 0 && links[k-1] >= id) {
			t.Fatalf("%s: AppendLinks(%d) = %v is not ascending and self-free", label, src, links)
		}
	}
	for dst := frame.NodeID(0); int(dst) < topo.NumNodes(); dst++ {
		if _, dm, sm := topo.LinkSignal(src, dst); (dm >= 0 || sm >= 0) && !member[dst] {
			t.Fatalf("%s: AppendLinks(%d) misses %d (margins %v, %v)", label, src, dst, dm, sm)
		}
	}
}

// TestMediumMemoryIsLinear pins the acceptance criterion that no N×N
// allocation hides under internal/radio: a 10,000-node sparse topology must
// build a medium whose link rows are sized by E, not N².
func TestMediumMemoryIsLinear(t *testing.T) {
	const n = 10000
	rng := sim.NewRand(42)
	pos := make([]Position, n)
	// ~35 m decode range (default config) in a 2 km square: sparse.
	for i := range pos {
		pos[i] = Position{X: rng.Float64() * 2000, Y: rng.Float64() * 2000}
	}
	pt := NewPathLossTopology(DefaultPathLossConfig(), pos)
	k := sim.NewKernel()
	m := NewMedium(k, pt, sim.NewRand(1))
	edges, sensed := 0, 0
	for i := range m.decode {
		edges += len(m.decode[i])
		sensed += len(m.sense[i])
	}
	if edges == 0 {
		t.Fatal("degenerate topology: no edges")
	}
	if edges > n*60 {
		t.Fatalf("decode rows hold %d entries for %d nodes — not sparse", edges, n)
	}
	if sensed > edges {
		t.Fatalf("sense rows (%d) larger than decode rows (%d)", sensed, edges)
	}
}

// TestConcurrentMediumBuildOverSharedTopology pins that a topology is safe
// to share read-only across goroutines (the parallel replication engine
// builds one Medium per replication over a shared *Network). A scratch
// buffer inside the topology would fail this under -race.
func TestConcurrentMediumBuildOverSharedTopology(t *testing.T) {
	rng := sim.NewRand(99)
	pos := make([]Position, 300)
	for i := range pos {
		pos[i] = Position{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	pt := NewPathLossTopology(DefaultPathLossConfig(), pos)
	ref := NewMedium(sim.NewKernel(), pt, sim.NewRand(1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewMedium(sim.NewKernel(), pt, sim.NewRand(1))
			for src := 0; src < 300; src++ {
				a, b := ref.DecodeNeighbors(frame.NodeID(src)), m.DecodeNeighbors(frame.NodeID(src))
				if len(a) != len(b) {
					t.Errorf("node %d: %d vs %d decode neighbors", src, len(a), len(b))
					return
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("node %d: neighbor %d differs", src, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
