package main

import (
	"sync"
	"time"

	"qma/internal/core"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
)

// The benchmark observes the simulator at its protocol factories. Every
// engine of every run — scenario.Run, scenario.RunSharded, the DSME
// substrate and the experiment families alike — is built through the
// registry entry's New, and mac.Lookup hands out that live entry, so
// decorating it reaches all three workloads without adding a registry key:
// mac.Names() stays what the program registered, which keeps the baselines
// family (it enumerates every registered protocol) on its golden digest.
//
// In observe mode, which every rep runs under, the decoration only records
// each engine and returns it unchanged, so the kernel, medium and MAC
// counters of runs the program does not report (the experiment families)
// can be read once the runs are over. In span mode it also wraps every
// engine's Deliver (medium → MAC) and Enqueue (traffic → MAC) and passes a
// wrapped Q-table to core.New (MAC → learner), counting every call and
// timing a sample. Span mode changes engine types, so it is only ever
// installed for a traced rep, whose simulated counters are checked against
// an observe-mode rep of the same inputs.

// instrument decorates every registered protocol factory so the engines it
// builds are recorded in rec (and wrapped in spans when spans is set). The
// returned function restores the original factories.
func instrument(rec *recorder, spans bool) (restore func()) {
	var undo []func()
	for _, name := range mac.Names() {
		p, _ := mac.Lookup(string(name))
		inner := p.New
		build := func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			return &spanEngine{Engine: inner(cfg, opts, rng)}
		}
		switch {
		case !spans:
			build = inner
		case p.Name == core.ProtocolName:
			build = tracedQMA
		}
		p.New = func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			e := build(cfg, opts, rng)
			rec.add(e)
			return e
		}
		undo = append(undo, func() { p.New = inner })
	}
	return func() {
		for _, u := range undo {
			u()
		}
	}
}

// tracedQMA builds the real QMA engine exactly as core.NewFromOptions does,
// except that the Q-table handed to core.New is wrapped in spans.
func tracedQMA(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
	var o core.Options
	if opts != nil {
		o = opts.(core.Options)
	}
	subslots := cfg.Clock.Config().Subslots
	learn := o.Learn
	if learn == (qlearn.Params{}) {
		learn = qlearn.DefaultParams()
	}
	var table qlearn.Table
	switch o.Table {
	case core.TableFixed:
		table = qlearn.NewFixedTableOn(subslots, core.NumActions, qlearn.DefaultFixedParams(),
			cfg.Scratch.Int16s(subslots*core.NumActions))
	case core.TableQuant:
		table = qlearn.NewQuantTableOn(subslots, core.NumActions, qlearn.DefaultQuantParams(),
			cfg.Scratch.Int8s(subslots*core.NumActions))
	default:
		table = qlearn.NewFloatTableOn(subslots, core.NumActions, learn,
			cfg.Scratch.Float64s(subslots*core.NumActions))
	}
	startup := o.StartupSubslots
	switch {
	case startup == 0:
		startup = -1
	case startup < 0:
		startup = 0
	}
	st := &spanTable{Table: table}
	e := core.New(core.Config{
		MAC:             cfg,
		Table:           st,
		Learn:           learn,
		Explorer:        o.Explorer,
		Rng:             rng,
		StartupSubslots: startup,
		StartupPunish:   !o.DisableStartupPunish,
		ReevalOnDecay:   o.ReevalOnDecay,
	})
	return &spanEngine{Engine: e, table: st}
}

// span accumulates the calls through one boundary. Reading the clock costs
// more than a Q-table access, so only every sampleEvery-th call is timed.
// Each wrapper owns its spans, so concurrent cells never share a counter.
type span struct {
	calls, timed uint64
	ns           int64
}

const sampleEvery = 16

// begin counts a call and starts the clock if the call is sampled.
func (s *span) begin() time.Time {
	if s.calls++; s.calls%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (s *span) end(start time.Time) {
	if !start.IsZero() {
		s.ns += int64(time.Since(start))
		s.timed++
	}
}

func (s *span) add(o span) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// clockCost is the time an empty span measures: the share of the two clock
// reads that lands inside the timed interval.
var clockCost = sync.OnceValue(func() float64 {
	var s span
	for i := 0; i < 1<<16; i++ {
		s.end(s.begin())
	}
	return float64(s.ns) / float64(s.timed)
})

// perCall is the mean time of one call through the boundary, net of the
// clock reads (0 when no call was sampled).
func (s span) perCall() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.ns)/float64(s.timed) - clockCost()
}

// spanEngine times the medium → MAC and traffic → MAC boundaries.
type spanEngine struct {
	mac.Engine
	deliver, enqueue span
	table            *spanTable // nil for protocols without a Q-table
}

func (e *spanEngine) Deliver(f *frame.Frame) {
	t := e.deliver.begin()
	e.Engine.Deliver(f)
	e.deliver.end(t)
}

func (e *spanEngine) Enqueue(f *frame.Frame) bool {
	t := e.enqueue.begin()
	ok := e.Engine.Enqueue(f)
	e.enqueue.end(t)
	return ok
}

// spanTable times the MAC → learner boundary: every value read or write the
// learner makes (dimension queries and Reset pass through untimed).
type spanTable struct {
	qlearn.Table
	span
}

func (t *spanTable) Q(s, a int) float64 {
	start := t.begin()
	v := t.Table.Q(s, a)
	t.end(start)
	return v
}

func (t *spanTable) SetQ(s, a int, v float64) {
	start := t.begin()
	t.Table.SetQ(s, a, v)
	t.end(start)
}

func (t *spanTable) Update(s, a int, r float64, next int) (float64, bool) {
	start := t.begin()
	v, improved := t.Table.Update(s, a, r, next)
	t.end(start)
	return v, improved
}

func (t *spanTable) MaxQ(s int) float64 {
	start := t.begin()
	v := t.Table.MaxQ(s)
	t.end(start)
	return v
}

func (t *spanTable) ArgMax(s int) int {
	start := t.begin()
	v := t.Table.ArgMax(s)
	t.end(start)
	return v
}

// tally sums the counters of a set of recorded engines.
type tally struct {
	events     uint64
	radio      radio.NodeStats
	txAttempts uint64
	txSuccess  uint64
	queueDrops uint64
	deliver    span
	enqueue    span
	qlearn     span
}

func (t *tally) add(o tally) {
	t.events += o.events
	t.radio.Accumulate(o.radio)
	t.txAttempts += o.txAttempts
	t.txSuccess += o.txSuccess
	t.queueDrops += o.queueDrops
	t.deliver.add(o.deliver)
	t.enqueue.add(o.enqueue)
	t.qlearn.add(o.qlearn)
}

// recorder collects the engines an instrumented factory built. Engines are
// built concurrently by replication and cell workers, hence the lock; it is
// taken once per engine build, never per event.
type recorder struct {
	mu      sync.Mutex
	engines []mac.Engine
	total   tally
}

func (r *recorder) add(e mac.Engine) {
	r.mu.Lock()
	r.engines = append(r.engines, e)
	r.mu.Unlock()
}

// drain sums the counters of every engine recorded since the last drain,
// adds them to the running total and forgets the engines. It must only be
// called once the runs that built them have returned.
func (r *recorder) drain() tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t tally
	kernels := map[*sim.Kernel]bool{}
	for _, e := range r.engines {
		b := e.Base()
		if k := b.Kernel(); !kernels[k] {
			kernels[k] = true
			t.events += k.Processed()
		}
		t.radio.Accumulate(b.Medium().Stats(b.ID()))
		s := b.Stats()
		t.txAttempts += s.TxAttempts
		t.txSuccess += s.TxSuccess
		t.queueDrops += s.QueueDrops
		if se, ok := e.(*spanEngine); ok {
			t.deliver.add(se.deliver)
			t.enqueue.add(se.enqueue)
			if se.table != nil {
				t.qlearn.add(se.table.span)
			}
		}
	}
	r.engines = nil
	r.total.add(t)
	return t
}

// take drains the recorder and returns, then resets, the running total.
func (r *recorder) take() tally {
	r.drain()
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.total
	r.total = tally{}
	return t
}
