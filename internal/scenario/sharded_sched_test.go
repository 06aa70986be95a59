package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
	"qma/internal/superframe"
	"qma/internal/topo"
)

// runShardedBarrier is the reference for the epoch exchange: RunSharded's
// build and collect phases around a plain sequential barrier loop. Every
// cell runs epoch e, then a single-threaded exchange mirrors the recorded
// edge transmissions into the neighbours' inboxes in cell order, skipping
// targets whose budget is exhausted. The loop exits early once every cell is
// exhausted, so Epochs counts only epochs some cell could still run.
func runShardedBarrier(cfg ShardedConfig) *ShardedResult {
	s := buildSharded(cfg)
	epoch := s.res.EpochLen
	inbox := make([][]foreignInj, len(s.cells))
	exhausted := func(c int) bool { return s.cells[c].run.Kernel.BudgetExhausted() }
	for now := sim.Time(0); now < cfg.Duration; now += epoch {
		live := false
		for c := range s.cells {
			live = live || !exhausted(c)
		}
		if !live {
			break
		}
		end := min(now+epoch, cfg.Duration)
		for c, sc := range s.cells {
			if exhausted(c) {
				continue
			}
			for _, inj := range inbox[c] {
				sc.run.Medium.ScheduleForeignBusy(inj.node, inj.channel, inj.start, inj.end)
			}
			s.res.Cells[c].ForeignBusy += uint64(len(inbox[c]))
			inbox[c] = inbox[c][:0]
			sc.run.Kernel.Run(end)
		}
		for c, sc := range s.cells {
			for _, tx := range sc.outbox {
				for _, tgt := range cfg.City.EdgeTargets(c, tx.src) {
					if !exhausted(int(tgt.Cell)) {
						inbox[tgt.Cell] = append(inbox[tgt.Cell], foreignInj{
							node: tgt.Node, channel: tx.channel,
							start: tx.start + epoch, end: tx.end + epoch,
						})
					}
				}
			}
			sc.outbox = sc.outbox[:0]
		}
		s.res.Epochs++
	}
	return collectSharded(s)
}

// matchBarrier runs cfg through the barrier reference and through RunSharded
// at 1, 2 and 4 workers, demanding byte-identical results — per-cell events,
// digests, windows, radio counters, foreign-busy counts, epoch count — and
// returns the reference.
func matchBarrier(t *testing.T, cfg ShardedConfig) *ShardedResult {
	t.Helper()
	ref := runShardedBarrier(cfg)
	for _, workers := range []int{1, 2, 4} {
		cfg.Parallel = workers
		if got := RunSharded(cfg); !reflect.DeepEqual(got, ref) {
			t.Errorf("dependency-driven run (parallel=%d) differs from the barrier reference:\n%+v\n%+v",
				workers, got, ref)
		}
	}
	return ref
}

// TestShardedDependencyMatchesLockstep is the scheduler-equivalence
// contract on a uniform city: the dependency-driven scheduler must be
// byte-identical to the barrier reference at every worker count. The
// runtime self-checks only observe, so arming them in every cell must leave
// each of those runs byte-identical too.
func TestShardedDependencyMatchesLockstep(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 280, CellsX: 2, CellsY: 2, Seed: 21})
	cfg := ShardedConfig{
		City:     city,
		Seed:     21,
		Duration: 2 * sim.Second,
		Rate:     2.0,
		StartAt:  sim.Second / 2,
	}
	ref := matchBarrier(t, cfg)
	if ref.NetworkPDR() <= 0 || ref.Events == 0 {
		t.Fatalf("degenerate reference run: PDR %v, events %d", ref.NetworkPDR(), ref.Events)
	}
	cfg.InvariantChecks = true
	for _, workers := range []int{1, 2, 4} {
		cfg.Parallel = workers
		if got := RunSharded(cfg); !reflect.DeepEqual(got, ref) {
			t.Errorf("checked run (parallel=%d) differs from the unchecked reference:\n%+v\n%+v", workers, got, ref)
		}
	}
}

// TestShardedHotCellDeterministic pins the scheduler on the workload it was
// built for: one cell with roughly 10× the per-cell load of the others, so
// behind a barrier every other cell would idle while the hot cell finishes.
// The result must still be byte-identical across worker counts and against
// the barrier reference. Runs in -short so CI exercises it under -race.
func TestShardedHotCellDeterministic(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{
		Nodes: 240, CellsX: 2, CellsY: 2, Seed: 33,
		HotspotCell: 0, HotspotFraction: 0.7,
	})
	hot, rest := city.Cells[0].NumNodes(), 0
	for _, net := range city.Cells[1:] {
		rest += net.NumNodes()
	}
	if hot*2 < rest*3 {
		t.Fatalf("hotspot cell holds %d nodes vs %d elsewhere — not imbalanced enough", hot, rest)
	}
	ref := matchBarrier(t, ShardedConfig{
		City:     city,
		Seed:     33,
		Duration: 2 * sim.Second,
		Rate:     2.0,
		StartAt:  sim.Second / 2,
	})
	if ref.NetworkPDR() <= 0 {
		t.Fatalf("degenerate run: PDR %v", ref.NetworkPDR())
	}
}

// TestShardedBudgetEarlyExit pins the early exit: once every cell's event
// budget is exhausted the run must stop instead of spinning empty epochs to
// Duration, with a truncated result and epoch count identical to the
// barrier reference's.
func TestShardedBudgetEarlyExit(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 240, CellsX: 2, CellsY: 2, Seed: 4})
	cfg := ShardedConfig{
		City:        city,
		Seed:        4,
		Duration:    30 * sim.Second,
		Rate:        2.0,
		StartAt:     sim.Second / 4,
		EventBudget: 20_000,
	}
	ref := matchBarrier(t, cfg)
	if !ref.Truncated {
		t.Fatal("budget did not truncate the run; raise Duration or lower EventBudget")
	}
	if total := totalEpochs(cfg.Duration, ref.EpochLen); ref.Epochs >= total {
		t.Fatalf("ran %d epochs of %d despite exhausted budgets — no early exit", ref.Epochs, total)
	}
	for i := range ref.Cells {
		if !ref.Cells[i].Truncated {
			t.Errorf("cell %d not truncated — early exit should only fire once every cell is done", i)
		}
	}
}

// TestShardedLockstepFullDurationEpochs pins that a run whose budget never
// exhausts still executes every epoch interval (the early exit must not
// fire spuriously), in agreement with the barrier reference.
func TestShardedLockstepFullDurationEpochs(t *testing.T) {
	city := topo.NewCity(topo.CityConfig{Nodes: 120, CellsX: 1, CellsY: 1, Seed: 2})
	cfg := ShardedConfig{City: city, Seed: 2, Duration: sim.Second, Rate: 1.0}
	ref := matchBarrier(t, cfg)
	if want := totalEpochs(cfg.Duration, ref.EpochLen); ref.Epochs != want {
		t.Fatalf("executed %d epochs, want %d", ref.Epochs, want)
	}
}

// faultyOptions arms the test-only "panic-test" protocol: the engine of node
// Node panics — at build time when AtBuild, else at simulated time At. A
// node id only the hotspot cell holds confines the fault to that cell.
type faultyOptions struct {
	Node    frame.NodeID
	At      sim.Time
	AtBuild bool
}

func init() {
	mac.Register(mac.Protocol{
		Name:     "panic-test",
		Validate: func(any) error { return nil },
		New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			o := opts.(faultyOptions)
			if cfg.ID == o.Node {
				if o.AtBuild {
					panic("injected build fault")
				}
				cfg.Kernel.AtCall(o.At, func(any) { panic("injected epoch fault") }, nil)
			}
			e, err := mac.Build("aloha", cfg, nil, rng)
			if err != nil {
				panic(err)
			}
			return e
		},
	})
}

// TestShardedFailureNamesCellEpochAndSeed injects a panic into one chosen
// cell of a 2-worker run and pins that the run fails — instead of
// deadlocking the pool — with a message naming that cell, the epoch it died
// in and its cell seed; a build-time panic names the cell and seed the same
// way.
func TestShardedFailureNamesCellEpochAndSeed(t *testing.T) {
	const hotCell = 2
	city := topo.NewCity(topo.CityConfig{
		Nodes: 240, CellsX: 2, CellsY: 2, Seed: 8,
		HotspotCell: hotCell, HotspotFraction: 0.7,
	})
	// Ids 0..node-1 cover every other cell, so id node exists in the hot
	// cell only and the fault fires there alone.
	node := 0
	for c, net := range city.Cells {
		if c != hotCell {
			node = max(node, net.NumNodes())
		}
	}
	if node >= city.Cells[hotCell].NumNodes() {
		t.Fatalf("hot cell holds %d nodes, not more than the others' %d", city.Cells[hotCell].NumNodes(), node)
	}
	base := ShardedConfig{
		City: city, MAC: "panic-test", Seed: 8, Parallel: 2,
		Duration: 2 * sim.Second, Rate: 1.0,
	}
	epochLen := superframe.DefaultConfig().SuperframeDuration()
	const epoch = 3
	seed := cellSeed(base.Seed, hotCell)

	for _, tc := range []struct {
		name string
		opts faultyOptions
		want []string
	}{
		{"epoch", faultyOptions{Node: frame.NodeID(node), At: epoch*epochLen + epochLen/2},
			[]string{fmt.Sprintf("cell %d failed at epoch %d (cell seed %d)", hotCell, epoch, seed), "injected epoch fault"}},
		{"build", faultyOptions{Node: frame.NodeID(node), AtBuild: true},
			[]string{fmt.Sprintf("cell %d (cell seed %d) failed to build", hotCell, seed), "injected build fault"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.MACOptions = tc.opts
			msg := make(chan string, 1)
			go func() {
				defer func() { msg <- fmt.Sprint(recover()) }()
				RunSharded(cfg)
			}()
			select {
			case got := <-msg:
				for _, want := range tc.want {
					if !strings.Contains(got, want) {
						t.Errorf("panic message lacks %q:\n%s", want, got)
					}
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("RunSharded deadlocked after a cell panicked")
			}
		})
	}
}
