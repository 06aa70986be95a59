// Sharded multi-cell execution: the mMTC scale-out path. A topo.City is run
// as one sub-simulation per cell — each cell owns its kernel, medium,
// link rows, busy counters, engines and traffic, so cells park on
// different cores with zero shared mutable state. Cells advance in epochs
// (one beacon interval by default); the edge-node transmissions recorded
// during an epoch are mirrored into the neighbouring shards' busy
// accounting (radio.Medium.ScheduleForeignBusy) one epoch later.
//
// A run has three phases: buildSharded builds the cells and their edge
// observers, runShardedDep drives the epochs, collectSharded folds the cells
// into the result. The scheduler is dependency-driven: persistent workers
// (stats.RunPool) and a per-cell epoch counter where cell c may run epoch e
// as soon as each of its grid neighbours finished epoch e−1 — exactly the
// synchronization the one-epoch mirroring lag licenses — so interior cells
// run up to an epoch ahead of a slow hot cell instead of idling at a global
// barrier. Ready cells are dequeued largest-estimated-work-first (estimate =
// the cell's previous epoch's kernel events) with worker affinity, so the
// critical path starts early and a cell tends to re-run on the worker whose
// cache holds its state.
//
// Results are byte-identical for every worker count. Workers only ever
// touch their own cell's state, and the injections a cell applies at epoch
// e are deterministic: each pending inbox batch is tagged with its source
// cell and epoch, only batches tagged e−1 are folded, and they fold sorted
// by source-cell id (each batch internally in outbox order) — exactly the
// order a global barrier followed by a single-threaded cell-order exchange
// produces, independent of worker arrival. The equivalence tests keep that
// barrier loop as their reference (sharded_sched_test.go).
//
// The one-epoch mirroring lag is the model's fidelity trade: cross-cell
// energy reaches a neighbour cell's CCA one beacon interval late. It is
// what makes the shards independent within an epoch — the alternative, a
// same-instant exchange, would serialize the cells. A 1-cell city has no
// boundary links, takes no injections and is byte-identical to the
// monolithic runner (TestShardedSingleCellMatchesMonolithic pins this).
package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// ShardedConfig describes one multi-cell sharded run.
type ShardedConfig struct {
	// City is the cell-partitioned deployment; required.
	City *topo.City
	// MAC selects the channel access scheme by registry key ("" = QMA).
	MAC mac.Name
	// MACOptions carries the protocol's options (core.Options for QMA); nil
	// selects the protocol's defaults.
	MACOptions any
	// Seed selects the random streams. Cell 0 uses it verbatim; cell c
	// derives Seed + c·φ (a fixed odd 64-bit constant), so per-cell streams
	// never collide and a 1-cell run is byte-identical to the monolithic
	// runner under the same seed.
	Seed uint64
	// Duration is the simulated time.
	Duration sim.Time
	// Rate is the per-device Poisson data rate in packets/second; every
	// routed device of every cell carries one evaluation source.
	Rate float64
	// StartAt delays traffic; MaxPackets bounds each source (0 = unbounded).
	StartAt    sim.Time
	MaxPackets int
	// Epoch is the period of the boundary-interference exchange (0 = one
	// superframe, the beacon interval).
	Epoch sim.Time
	// Window is the streaming stats window in simulated time (0 = 1 s).
	Window sim.Time
	// Parallel bounds the worker pool driving the cells (0 = GOMAXPROCS,
	// 1 = sequential). Results are byte-identical for every value.
	Parallel int
	// EventBudget truncates each cell after this many kernel events when
	// positive (a truncated cell stops advancing and marks the result).
	EventBudget uint64
	// InvariantChecks enables the runtime self-checks in every cell.
	InvariantChecks bool
}

// CellResult carries one cell's streamed aggregates. Memory is
// O(1) + O(windows) per cell — no per-node state survives the run.
type CellResult struct {
	// Cell is the cell index; Nodes its node count (including the sink) and
	// Routed how many devices had a route (and therefore a traffic source).
	Cell   int
	Nodes  int
	Routed int
	// Summary is the cell's evaluation traffic tally.
	Summary
	// Delay is the mergeable end-to-end delay digest (seconds).
	Delay stats.Digest
	// Windows are the per-window PDR/delay accumulators.
	Windows []stats.WindowCounts
	// Radio sums the medium counters over the cell's nodes.
	Radio radio.NodeStats
	// EdgeTx counts transmissions mirrored into at least one neighbour;
	// ForeignBusy counts busy windows mirrored into this cell.
	EdgeTx      uint64
	ForeignBusy uint64
	// Events is the cell kernel's processed event count; Truncated reports
	// an exhausted per-cell event budget.
	Events    uint64
	Truncated bool
}

// ShardedResult is the outcome of one sharded run.
type ShardedResult struct {
	// Cells holds one entry per cell.
	Cells []CellResult
	// Duration is the simulated time; EpochLen and Window echo the resolved
	// exchange and stats periods.
	Duration sim.Time
	EpochLen sim.Time
	Window   sim.Time
	// Epochs is the largest number of epochs any cell executed (fewer than
	// the duration covers when every budget ran out early).
	Epochs int
	// Events sums the cells' kernel events; Truncated reports any truncated
	// cell.
	Events    uint64
	Truncated bool
}

// total folds the cells' tallies into one network-wide Summary.
func (r *ShardedResult) total() Summary {
	var t Summary
	for i := range r.Cells {
		t.add(&r.Cells[i].Summary)
	}
	return t
}

// NetworkPDR reports total delivered / total generated across all cells.
func (r *ShardedResult) NetworkPDR() float64 {
	return r.total().PDR()
}

// MeanDelay reports the mean end-to-end delay over all delivered evaluation
// packets, in seconds.
func (r *ShardedResult) MeanDelay() float64 {
	return r.total().MeanDelay()
}

// DelayDigest merges the per-cell delay digests into the network-wide
// sketch (merging is exact).
func (r *ShardedResult) DelayDigest() stats.Digest {
	var d stats.Digest
	for i := range r.Cells {
		d.Merge(&r.Cells[i].Delay)
	}
	return d
}

// CrossCellFraction reports the fraction of transmissions that were
// mirrored into at least one neighbouring cell — the boundary-interference
// coupling of the partition (0 when nothing transmitted).
func (r *ShardedResult) CrossCellFraction() float64 {
	var edge, tx uint64
	for i := range r.Cells {
		edge += r.Cells[i].EdgeTx
		tx += r.Cells[i].Radio.TxCount
	}
	if tx == 0 {
		return 0
	}
	return float64(edge) / float64(tx)
}

// cellSeedStride is the per-cell seed offset (the 64-bit golden-ratio
// constant; odd, so distinct cells never collide within uint64 wrap).
const cellSeedStride = 0x9E3779B97F4A7C15

// cellSeed derives cell c's seed. Cell 0 keeps the configured seed, which
// is what makes a 1-cell sharded run byte-identical to the monolithic one.
func cellSeed(seed uint64, cell int) uint64 {
	return seed + uint64(cell)*cellSeedStride
}

// edgeTX records one transmission by a boundary node, pending exchange.
type edgeTX struct {
	src        frame.NodeID
	channel    uint8
	start, end sim.Time
}

// foreignInj is one busy window to mirror into a cell next epoch.
type foreignInj struct {
	node       frame.NodeID
	channel    uint8
	start, end sim.Time
}

// inboxBatch is one source cell's epoch-worth of injections for one target
// cell, pending folding. The (srcCell, epoch) tag is what makes the
// dependency-driven exchange deterministic: a target running epoch e folds
// exactly the batches tagged e−1, sorted by srcCell — a batch a fast
// neighbour pushed early (tagged e) stays pending until the target reaches
// epoch e+1, whatever order workers delivered them in.
type inboxBatch struct {
	srcCell int32
	epoch   int
	inj     []foreignInj
}

// shardCell is one cell's live state during a sharded run.
type shardCell struct {
	run     *run
	routed  int
	delay   stats.Digest
	windows *stats.Windowed
	outbox  []edgeTX
	// inboxMu guards pending, the tagged batches neighbours append
	// concurrently as they finish their epochs; the cell's own job extracts
	// its due batches at epoch start. These are the only cross-cell writes.
	inboxMu sync.Mutex
	pending []inboxBatch
	// prevEvents remembers the kernel event count at the last epoch end, so
	// the scheduler prices the next epoch at the previous epoch's work.
	prevEvents uint64
}

// shardedRun is one sharded simulation between its phases: built cells with
// their edge observers installed and the result they fill.
type shardedRun struct {
	cfg   ShardedConfig
	cells []*shardCell
	res   *ShardedResult
}

// ErrNoCity is the error ShardedConfig.Validate reports for a missing City.
var ErrNoCity = errors.New("City is required")

// Validate reports the first configuration problem, or nil. buildSharded
// panics with its error; the public qma facade returns it. The City is
// checked last, so a caller that builds the City only after validating (the
// facade) can check every other rule first and skip ErrNoCity. Per-cell
// rules stay with the cells: topo.CityConfig.Validate and BuildCity check
// the partition, and each cell's Config.Validate checks its run.
func (cfg *ShardedConfig) Validate() error {
	switch {
	case cfg.Duration <= 0:
		return fmt.Errorf("duration %v must be positive", cfg.Duration)
	case !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1):
		return fmt.Errorf("rate %g must be positive and finite", cfg.Rate)
	case cfg.StartAt < 0 || cfg.Epoch < 0 || cfg.Window < 0:
		return fmt.Errorf("start %v, epoch %v and window %v must not be negative", cfg.StartAt, cfg.Epoch, cfg.Window)
	case cfg.City == nil:
		return ErrNoCity
	}
	return nil
}

// RunSharded executes the multi-cell sharded simulation. Like Run it panics
// with the Validate error on configuration errors and never on simulation
// behaviour; a panic inside a cell's build or epoch (a simulator bug)
// propagates instead of being dropped, naming the cell, its epoch and its
// cell seed.
//
// Unlike Run it does not Release its cells' storage: a city would park one
// pooled arena per cell. That raised city-20k-hot's peak RSS from 82–83 MB
// to 129 MB while a released arena kept its last kernel and, through its
// queued events, the cell's engines; since Release recycles the kernel, it
// is unmeasured.
func RunSharded(cfg ShardedConfig) *ShardedResult {
	s := buildSharded(cfg)
	runShardedDep(s)
	return collectSharded(s)
}

// buildSharded validates cfg, builds every cell as an independent
// SummaryOnly sub-simulation and installs the observers that record edge
// transmissions for the exchange.
func buildSharded(cfg ShardedConfig) *shardedRun {
	if err := cfg.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	epoch := cmp.Or(cfg.Epoch, superframe.DefaultConfig().SuperframeDuration())
	window := cmp.Or(cfg.Window, sim.Second)

	city := cfg.City
	cells := make([]*shardCell, city.NumCells())
	res := &ShardedResult{
		Cells:    make([]CellResult, len(cells)),
		Duration: cfg.Duration,
		EpochLen: epoch,
		Window:   window,
	}

	// Builds are heavy at mMTC scale (engines, link rows), so they run on
	// the worker pool too; each build writes only its own cell.
	if errs := stats.ForEach(len(cells), cfg.Parallel, func(c int) {
		sc := &shardCell{windows: stats.NewWindowed(window.Seconds())}
		net := city.Cells[c]
		cellCfg := Config{
			Network:         net,
			MAC:             cfg.MAC,
			MACOptions:      cfg.MACOptions,
			Seed:            cellSeed(cfg.Seed, c),
			Duration:        cfg.Duration,
			EventBudget:     cfg.EventBudget,
			InvariantChecks: cfg.InvariantChecks,
			SummaryOnly:     true,
			OnEvalGenerate: func(_ frame.NodeID, at sim.Time) {
				sc.windows.ObserveGenerate(at.Seconds())
			},
			OnEvalDeliver: func(_ frame.NodeID, createdAt, at sim.Time) {
				delay := (at - createdAt).Seconds()
				sc.delay.Add(delay)
				sc.windows.ObserveDeliver(at.Seconds(), delay)
			},
		}
		for i := 1; i < net.NumNodes(); i++ {
			id := frame.NodeID(i)
			if net.Parent[id] < 0 {
				continue // detached device: no route, no source
			}
			cellCfg.Traffic = append(cellCfg.Traffic, TrafficSpec{
				Origin:     id,
				Phases:     []traffic.Phase{{Rate: cfg.Rate}},
				StartAt:    cfg.StartAt,
				MaxPackets: cfg.MaxPackets,
				Tag:        frame.TagEval,
			})
		}
		sc.routed = len(cellCfg.Traffic)
		sc.run = build(cellCfg)
		// Record edge-node transmissions for the exchange. The observer
		// changes no medium state, so interior-only cells (and 1-cell cities)
		// stay byte-identical to the monolithic run.
		sc.run.Medium.SetTxObserver(func(src frame.NodeID, channel uint8, start, end sim.Time) {
			if len(city.EdgeTargets(c, src)) == 0 {
				return
			}
			sc.outbox = append(sc.outbox, edgeTX{src: src, channel: channel, start: start, end: end})
			res.Cells[c].EdgeTx++
		})
		cells[c] = sc
	}); errs != nil {
		c := errs[0].Index
		panic(fmt.Sprintf("scenario: sharded cell %d (cell seed %d) failed to build: %v\n%s",
			c, cellSeed(cfg.Seed, c), errs[0].Value, errs[0].Stack))
	}
	return &shardedRun{cfg: cfg, cells: cells, res: res}
}

// collectSharded folds every cell's streamed aggregates into the result.
func collectSharded(s *shardedRun) *ShardedResult {
	res := s.res
	for c, sc := range s.cells {
		sc.run.collect()
		cr := &res.Cells[c]
		cr.Cell = c
		cr.Nodes = s.cfg.City.Cells[c].NumNodes()
		cr.Routed = sc.routed
		cr.Summary = *sc.run.result.Summary
		cr.Delay = sc.delay
		cr.Windows = sc.windows.Windows()
		for i := 0; i < cr.Nodes; i++ {
			cr.Radio.Accumulate(sc.run.Medium.Stats(frame.NodeID(i)))
		}
		cr.Events = sc.run.result.Events
		cr.Truncated = sc.run.result.Truncated
		res.Events += cr.Events
		res.Truncated = res.Truncated || cr.Truncated
	}
	return res
}

// totalEpochs counts the epoch intervals covering the duration — the epoch
// budget of a run (the last interval may be short).
func totalEpochs(duration, epoch sim.Time) int {
	return int((duration + epoch - 1) / epoch)
}

// runShardedDep drives the cells with the dependency-driven scheduler on a
// persistent worker pool: cell c may run epoch e as soon as every neighbour
// finished epoch e−1 (or can never reach it because its budget ran out), so
// no cell ever waits on a non-neighbour and adjacent cells skew by at most
// one epoch. One pool item = one (cell, epoch); completing an epoch
// advances the cell's counter and re-evaluates readiness for the cell and
// its neighbours — the only cells whose readiness that completion can have
// changed, since the adjacency is symmetric.
//
// Determinism: the epoch job touches only its own cell's state except for
// appending one (srcCell, epoch)-tagged batch per neighbouring inbox under
// that inbox's lock; the fold at epoch start selects exactly the batches
// tagged e−1 and sorts them by source cell, reproducing a global barrier's
// cell-order exchange regardless of arrival order. Budget equivalence: a
// barrier exchange skips targets already exhausted, while this scheduler
// always publishes and instead never schedules an exhausted cell again — its
// pending batches are simply never folded, so per-cell ForeignBusy counts
// match.
//
// A panicking epoch aborts the pool without a retry (the cell's kernel is
// mid-epoch and cannot resume) and re-panics naming the cell, the epoch it
// died in and its cell seed.
func runShardedDep(s *shardedRun) {
	cfg, cells, res := s.cfg, s.cells, s.res
	epoch := res.EpochLen
	total := totalEpochs(cfg.Duration, epoch)
	workers := min(stats.Workers(cfg.Parallel), len(cells))

	// Scheduler state, guarded by schedMu. done[c] counts c's completed
	// epochs; queued marks a cell with an item pushed but not completed, so
	// readiness re-evaluation never double-schedules; prio and lastWorker
	// carry the work estimate and worker affinity into the next item.
	var schedMu sync.Mutex
	done := make([]int, len(cells))
	queued := make([]bool, len(cells))
	exhausted := make([]bool, len(cells))
	prio := make([]uint64, len(cells))
	lastWorker := make([]int, len(cells))

	// Every cell is ready for epoch 0; price it at the routed source count
	// (the only load signal before any epoch ran) and spread affinity
	// round-robin.
	initial := make([]stats.Item, len(cells))
	for c, sc := range cells {
		queued[c] = true
		prio[c] = uint64(sc.routed)
		lastWorker[c] = c % workers
		initial[c] = stats.Item{ID: c, Priority: prio[c], Affinity: lastWorker[c]}
	}

	job := func(w, c int) []stats.Item {
		sc := cells[c]
		schedMu.Lock()
		e := done[c]
		schedMu.Unlock()

		// Fold the injections due this epoch: extract under the inbox lock,
		// then apply outside it in deterministic order.
		if e > 0 {
			sc.inboxMu.Lock()
			var fold []inboxBatch
			rest := sc.pending[:0]
			for _, b := range sc.pending {
				if b.epoch == e-1 {
					fold = append(fold, b)
				} else {
					rest = append(rest, b)
				}
			}
			sc.pending = rest
			sc.inboxMu.Unlock()
			sort.Slice(fold, func(a, b int) bool { return fold[a].srcCell < fold[b].srcCell })
			for _, b := range fold {
				for _, inj := range b.inj {
					sc.run.Medium.ScheduleForeignBusy(inj.node, inj.channel, inj.start, inj.end)
				}
				res.Cells[c].ForeignBusy += uint64(len(b.inj))
			}
		}

		sc.run.Kernel.Run(min(sim.Time(e+1)*epoch, cfg.Duration))

		// Publish this epoch's outbox as one tagged batch per target cell,
		// preserving outbox order within each batch. This runs even when the
		// budget just ran out — a barrier exchange also forwards the
		// exhausting epoch's transmissions. Windows are mirrored one epoch
		// late, so the earliest start (this epoch's begin + epoch) is the
		// target's next epoch start, never in its kernel's past.
		if len(sc.outbox) > 0 {
			byDst := map[int32][]foreignInj{}
			var order []int32
			for _, tx := range sc.outbox {
				for _, tgt := range cfg.City.EdgeTargets(c, tx.src) {
					if _, ok := byDst[tgt.Cell]; !ok {
						order = append(order, tgt.Cell)
					}
					byDst[tgt.Cell] = append(byDst[tgt.Cell], foreignInj{
						node:    tgt.Node,
						channel: tx.channel,
						start:   tx.start + epoch,
						end:     tx.end + epoch,
					})
				}
			}
			for _, dc := range order {
				dst := cells[dc]
				dst.inboxMu.Lock()
				dst.pending = append(dst.pending, inboxBatch{srcCell: int32(c), epoch: e, inj: byDst[dc]})
				dst.inboxMu.Unlock()
			}
			sc.outbox = sc.outbox[:0]
		}

		ev := sc.run.Kernel.Processed()
		delta := ev - sc.prevEvents
		sc.prevEvents = ev

		schedMu.Lock()
		defer schedMu.Unlock()
		done[c] = e + 1
		queued[c] = false
		exhausted[c] = sc.run.Kernel.BudgetExhausted()
		prio[c] = delta
		lastWorker[c] = w
		var pushes []stats.Item
		consider := func(m int) {
			if queued[m] || exhausted[m] || done[m] >= total {
				return
			}
			for _, n := range cfg.City.NeighborCells(m) {
				// A neighbour that can never reach done[m] epochs (budget ran
				// out earlier) stops constraining m — it will produce no more
				// batches, exactly like its empty epochs behind a barrier.
				if done[n] < done[m] && !exhausted[n] {
					return
				}
			}
			queued[m] = true
			pushes = append(pushes, stats.Item{ID: m, Priority: prio[m], Affinity: lastWorker[m]})
		}
		consider(c)
		for _, n := range cfg.City.NeighborCells(c) {
			consider(int(n))
		}
		return pushes
	}

	if errs := stats.RunPool(workers, initial, job); errs != nil {
		// The pool has drained, so done is stable; the failed job never
		// completed, leaving done[c] at the epoch it died in.
		c := errs[0].Index
		panic(fmt.Sprintf("scenario: sharded cell %d failed at epoch %d (cell seed %d): %v\n%s",
			c, done[c], cellSeed(cfg.Seed, c), errs[0].Value, errs[0].Stack))
	}

	// The pool drained: every cell must have either run all its epochs or
	// stopped on an exhausted budget — anything else is a scheduler bug, and
	// silently returning would hand out a partial result.
	for c := range cells {
		if done[c] < total && !exhausted[c] {
			panic(fmt.Sprintf("scenario: sharded scheduler stalled: cell %d stopped at epoch %d of %d", c, done[c], total))
		}
		res.Epochs = max(res.Epochs, done[c])
	}
}
