package scenario

import (
	"reflect"
	"testing"
	"unsafe"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// monolithicReference runs cell 0 of a 1-cell city through the ordinary
// single-kernel path, with the exact Config RunSharded assembles for it, and
// returns the run (for medium access) plus the streamed digests.
func monolithicReference(city *topo.City, cfg ShardedConfig) (*run, *stats.Digest, *stats.Windowed) {
	window := cfg.Window
	if window <= 0 {
		window = sim.Second
	}
	digest := &stats.Digest{}
	windows := stats.NewWindowed(window.Seconds())
	net := city.Cells[0]
	mono := Config{
		Network:     net,
		MAC:         cfg.MAC,
		MACOptions:  cfg.MACOptions,
		Seed:        cfg.Seed,
		Duration:    cfg.Duration,
		SummaryOnly: true,
		OnEvalGenerate: func(_ frame.NodeID, at sim.Time) {
			windows.ObserveGenerate(at.Seconds())
		},
		OnEvalDeliver: func(_ frame.NodeID, createdAt, at sim.Time) {
			delay := (at - createdAt).Seconds()
			digest.Add(delay)
			windows.ObserveDeliver(at.Seconds(), delay)
		},
	}
	for i := 1; i < net.NumNodes(); i++ {
		id := frame.NodeID(i)
		if net.Parent[id] < 0 {
			continue
		}
		mono.Traffic = append(mono.Traffic, TrafficSpec{
			Origin:     id,
			Phases:     []traffic.Phase{{Rate: cfg.Rate}},
			StartAt:    cfg.StartAt,
			MaxPackets: cfg.MaxPackets,
			Tag:        frame.TagEval,
		})
	}
	r := build(mono)
	r.Kernel.Run(mono.Duration)
	r.collect()
	return r, digest, windows
}

// TestShardedSingleCellMatchesMonolithic pins the exact-equivalence contract:
// a 1-cell sharded run (which steps the kernel in epoch-sized chunks and
// installs the TX observer, but has no boundary links and hence no foreign
// injections) must be byte-identical to one continuous monolithic run.
func TestShardedSingleCellMatchesMonolithic(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 120, CellsX: 1, CellsY: 1, Seed: 11})
	cfg := ShardedConfig{
		City:     city,
		Seed:     11,
		Duration: 4 * sim.Second,
		Rate:     1.0,
		StartAt:  sim.Second / 2,
	}
	sh := RunSharded(cfg)
	mono, digest, windows := monolithicReference(city, cfg)

	if len(sh.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(sh.Cells))
	}
	cell := &sh.Cells[0]
	s := mono.result.Summary
	if cell.Generated != s.Generated || cell.Delivered != s.Delivered || cell.DelaySum != s.DelaySum {
		t.Errorf("summary differs: sharded gen=%d del=%d sum=%v, monolithic gen=%d del=%d sum=%v",
			cell.Generated, cell.Delivered, cell.DelaySum, s.Generated, s.Delivered, s.DelaySum)
	}
	if cell.Generated == 0 || cell.Delivered == 0 {
		t.Fatalf("degenerate run: gen=%d del=%d", cell.Generated, cell.Delivered)
	}
	if sh.Events != mono.result.Events {
		t.Errorf("event counts differ: sharded %d, monolithic %d", sh.Events, mono.result.Events)
	}
	if cell.Delay != *digest {
		t.Errorf("delay digests differ: sharded n=%d min=%g max=%g, monolithic n=%d min=%g max=%g",
			cell.Delay.N(), cell.Delay.Min(), cell.Delay.Max(), digest.N(), digest.Min(), digest.Max())
	}
	if !reflect.DeepEqual(cell.Windows, windows.Windows()) {
		t.Errorf("windows differ:\nsharded    %+v\nmonolithic %+v", cell.Windows, windows.Windows())
	}
	var monoRadio radio.NodeStats
	for i := 0; i < city.Cells[0].NumNodes(); i++ {
		monoRadio.Accumulate(mono.Medium.Stats(frame.NodeID(i)))
	}
	if cell.Radio != monoRadio {
		t.Errorf("radio counters differ:\nsharded    %+v\nmonolithic %+v", cell.Radio, monoRadio)
	}
	if cell.EdgeTx != 0 || cell.ForeignBusy != 0 {
		t.Errorf("1-cell run recorded edge activity: edgeTx=%d foreign=%d", cell.EdgeTx, cell.ForeignBusy)
	}
}

// TestShardedMultiCellMatchesNaiveReference runs randomized multi-cell
// deployments and demands the boundary exchange is live: a city with
// boundary links must mirror some foreign busy windows. The boundary
// enumeration it drives is pinned against the quadratic position-based
// reference by topo's TestCityBoundaryMatchesBruteForce.
func TestShardedMultiCellMatchesNaiveReference(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, seed := range []uint64{3, 17, 95} {
		city := topo.NewCity(topo.CityConfig{Nodes: 320, CellsX: 2, CellsY: 2, Seed: seed})
		a := RunSharded(ShardedConfig{
			City:     city,
			Seed:     seed,
			Duration: 3 * sim.Second,
			Rate:     2.0,
			StartAt:  sim.Second / 2,
		})
		var foreign uint64
		for i := range a.Cells {
			foreign += a.Cells[i].ForeignBusy
		}
		if city.BoundaryLinks() > 0 && foreign == 0 {
			t.Errorf("seed %d: %d boundary links but no foreign busy injections — exchange inert?",
				seed, city.BoundaryLinks())
		}
	}
}

// TestShardedDeterministicAcrossWorkers pins that the worker count is
// invisible: -parallel 8 must be byte-identical to sequential execution.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 280, CellsX: 2, CellsY: 2, Seed: 5})
	cfg := ShardedConfig{
		City:     city,
		Seed:     5,
		Duration: 2 * sim.Second,
		Rate:     1.0,
		Parallel: 1,
	}
	a := RunSharded(cfg)
	cfg.Parallel = 8
	b := RunSharded(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel=1 and parallel=8 runs differ:\n%+v\n%+v", a, b)
	}
	if a.NetworkPDR() <= 0 {
		t.Fatalf("degenerate run: PDR %v", a.NetworkPDR())
	}
}

// TestSummaryOnlyMatchesFullRun pins the satellite contract: a SummaryOnly
// run produces identical network-level metrics with no per-node results.
func TestSummaryOnlyMatchesFullRun(t *testing.T) {
	base := hiddenNodeConfig(QMA, 5, 9)
	base.Duration = 20 * sim.Second
	for i := range base.Traffic {
		base.Traffic[i].StartAt = 1 * sim.Second
	}
	base.MeasureFrom = 0
	full := Run(base)

	sum := base
	sum.SummaryOnly = true
	lean := Run(sum)

	if lean.Nodes != nil {
		t.Fatalf("SummaryOnly run materialized %d node results", len(lean.Nodes))
	}
	if lean.Summary == nil {
		t.Fatal("SummaryOnly run has no Summary")
	}
	if full.Summary != nil {
		t.Fatal("full run unexpectedly has a Summary")
	}
	if got, want := lean.NetworkPDR(), full.NetworkPDR(); got != want {
		t.Errorf("NetworkPDR %v != %v", got, want)
	}
	if got, want := lean.MeanDelay(), full.MeanDelay(); got != want {
		t.Errorf("MeanDelay %v != %v", got, want)
	}
	if lean.Events != full.Events {
		t.Errorf("Events %d != %d", lean.Events, full.Events)
	}
	var gen, del uint64
	for _, n := range full.Nodes {
		gen += n.Generated
		del += n.Delivered
	}
	if lean.Summary.Generated != gen || lean.Summary.Delivered != del {
		t.Errorf("summary gen=%d del=%d, per-node totals gen=%d del=%d",
			lean.Summary.Generated, lean.Summary.Delivered, gen, del)
	}
	if del == 0 {
		t.Fatal("degenerate run: nothing delivered")
	}
}

func TestSummaryOnlyRejectsSampling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic combining SummaryOnly with SamplePeriod")
		}
	}()
	cfg := hiddenNodeConfig(QMA, 1, 1)
	cfg.SummaryOnly = true
	cfg.SamplePeriod = sim.Second
	Run(cfg)
}

// shardedResultBytes walks the result's retained memory.
func shardedResultBytes(r *ShardedResult) uintptr {
	total := unsafe.Sizeof(*r)
	total += uintptr(cap(r.Cells)) * unsafe.Sizeof(CellResult{})
	for i := range r.Cells {
		total += uintptr(cap(r.Cells[i].Windows)) * unsafe.Sizeof(stats.WindowCounts{})
	}
	return total
}

// TestShardedResultFootprintAtScale runs the headline configuration — a
// 100k-node city — briefly and asserts the result memory is O(cells+windows),
// bounded well under 16 bytes per node (the regression guard for the
// SummaryOnly/streaming satellites; a per-node NodeResult slice alone would
// cost >100 bytes/node).
func TestShardedResultFootprintAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node integration run")
	}
	const n = 100_000
	city := topo.NewCity(topo.CityConfig{Nodes: n, CellsX: 8, CellsY: 8, Seed: 1})
	res := RunSharded(ShardedConfig{
		City:     city,
		Seed:     1,
		Duration: 2 * sim.Second,
		Rate:     0.2,
		StartAt:  sim.Second / 2,
	})
	if res.NetworkPDR() <= 0 {
		t.Fatalf("degenerate run: PDR %v", res.NetworkPDR())
	}
	bytes := shardedResultBytes(res)
	perNode := float64(bytes) / n
	t.Logf("N=%d: result holds %d bytes (%.3f bytes/node), events=%d, PDR=%.3f",
		n, bytes, perNode, res.Events, res.NetworkPDR())
	if perNode > 16 {
		t.Errorf("result footprint %.1f bytes/node, want <= 16 (O(cells+windows) regression)", perNode)
	}
}
