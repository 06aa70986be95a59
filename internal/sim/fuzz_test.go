package sim

import (
	"testing"
)

// FuzzKernelScheduleCancel drives the arena/heap kernel and a naive
// reference queue (sorted linear scan, no arena, no freelist, no lazy
// compaction) through identical randomized programs of schedule, early
// schedule, cancel, fire-time re-schedule and fire-time cancel operations,
// and asserts identical firing traces. It is the adversarial counterpart of
// kernel_test.go: the byte stream decides the interleaving, so `go test
// -fuzz` explores schedule/cancel orderings (including cancelling events
// from inside callbacks and recycling slots mid-run) no hand-written table
// would cover. Committed seeds live in testdata/fuzz.

// fuzzOp is one pre-run program step decoded from the fuzz input.
type fuzzOp struct {
	kind  byte // 0 schedule, 1 schedule-early, 2 cancel, 3 fire→schedule, 4 fire→cancel
	at    Time // absolute schedule time (kinds 0,1,3,4)
	extra byte // child delay (3) or cancel target selector (2,4)
}

func decodeProgram(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+3 < len(data) && len(ops) < 300; i += 4 {
		ops = append(ops, fuzzOp{
			kind:  data[i] % 5,
			at:    Time(uint16(data[i+1])<<4 | uint16(data[i+2])),
			extra: data[i+3],
		})
	}
	return ops
}

// fireRec is one trace entry: which logical event fired at what time.
type fireRec struct {
	idx int
	at  Time
}

// fuzzQueue abstracts the two implementations for the program runner.
type fuzzQueue interface {
	schedule(at Time, early bool, fn func()) (cancel func())
	now() Time
	run()
}

// realQueue adapts Kernel; reach, when set, records the wheel levels and
// compactions the program touched.
type realQueue struct {
	k     *Kernel
	reach *wheelReach
}

type wheelReach struct{ coarse, far, compacted bool }

func (q realQueue) schedule(at Time, early bool, fn func()) func() {
	wrap := func(any) { fn() }
	var id EventID
	if early {
		id = q.k.AtCallEarly(at, wrap, nil)
	} else {
		id = q.k.AtCall(at, wrap, nil)
	}
	if r := q.reach; r != nil {
		r.coarse = r.coarse || q.k.coarseOcc.sum != 0
		r.far = r.far || len(q.k.far) > 0
		return func() {
			before := q.k.queued
			id.Cancel()
			r.compacted = r.compacted || q.k.queued < before
		}
	}
	return id.Cancel
}
func (q realQueue) now() Time               { return q.k.Now() }
func (q realQueue) run()                    { q.k.Run(Never) }
func (q realQueue) runUntil(until Time)     { q.k.Run(until) }
func (q realQueue) processed() uint64       { return q.k.Processed() }
func (q realQueue) setBudget(events uint64) { q.k.SetBudget(events) }

// naiveEvent and naiveQueue are the reference implementation: an append-only
// slice scanned linearly for the minimum of (at, early-first, seq).
type naiveEvent struct {
	at       Time
	seq      uint64
	early    bool
	canceled bool
	fired    bool
	fn       func()
}

type naiveQueue struct {
	events []*naiveEvent
	seq    uint64
	t      Time
	budget uint64 // lifetime event budget, 0 = unlimited
	fired  uint64
}

func (q *naiveQueue) schedule(at Time, early bool, fn func()) func() {
	q.seq++
	e := &naiveEvent{at: at, seq: q.seq, early: early, fn: fn}
	q.events = append(q.events, e)
	return func() { e.canceled = true }
}

func (q *naiveQueue) now() Time { return q.t }

func (q *naiveQueue) run()                    { q.runUntil(Never) }
func (q *naiveQueue) processed() uint64       { return q.fired }
func (q *naiveQueue) setBudget(events uint64) { q.budget = events }

// next returns the earliest live event by (at, early-first, seq), or nil.
func (q *naiveQueue) next() *naiveEvent {
	var best *naiveEvent
	for _, e := range q.events {
		if e.fired || e.canceled {
			continue
		}
		if best == nil || e.at < best.at ||
			(e.at == best.at && e.early && !best.early) ||
			(e.at == best.at && e.early == best.early && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

// runUntil is the reference for Kernel.Run: fire in order while the budget
// lasts, then move the clock to until unless a live event at or before
// until remains.
func (q *naiveQueue) runUntil(until Time) {
	for q.budget == 0 || q.fired < q.budget {
		best := q.next()
		if best == nil || best.at > until {
			break
		}
		best.fired = true
		q.t = best.at
		q.fired++
		best.fn()
	}
	if until != Never && q.t < until {
		if e := q.next(); e == nil || e.at > until {
			q.t = until
		}
	}
}

// runProgram executes the decoded program against one implementation and
// returns the firing trace. Event behaviours are bound to logical event
// indices at creation, so both implementations execute the same logical
// program; any divergence in kernel ordering or cancellation shows up as a
// trace diff.
func runProgram(ops []fuzzOp, q fuzzQueue) []fireRec {
	var trace []fireRec
	cancels := make(map[int]func())
	next := 0
	var create func(kind byte, at Time, extra byte)
	create = func(kind byte, at Time, extra byte) {
		idx := next
		next++
		fire := func() {
			trace = append(trace, fireRec{idx: idx, at: q.now()})
			switch kind {
			case 3:
				create(0, q.now()+Time(extra), 0)
			case 4:
				if next > 0 {
					if c := cancels[int(extra)%next]; c != nil {
						c()
					}
				}
			}
		}
		cancels[idx] = q.schedule(at, kind == 1, fire)
	}
	for _, op := range ops {
		switch op.kind {
		case 2:
			if next > 0 {
				if c := cancels[int(op.extra)%next]; c != nil {
					c()
				}
			}
		default:
			create(op.kind, op.at, op.extra)
		}
	}
	q.run()
	return trace
}

func FuzzKernelScheduleCancel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 1, 0, 10, 0, 0, 0, 10, 0, 2, 0, 0, 1})
	f.Add([]byte{3, 0, 50, 7, 4, 0, 50, 0, 0, 0, 50, 3, 1, 0, 50, 2, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 3, 0, 255, 255, 4, 2, 0, 1, 1, 1, 0, 9, 2, 0, 0, 3, 0, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeProgram(data)
		real := runProgram(ops, realQueue{k: NewKernel()})
		naive := runProgram(ops, &naiveQueue{})
		if len(real) != len(naive) {
			t.Fatalf("trace length: kernel %d, reference %d", len(real), len(naive))
		}
		for i := range real {
			if real[i] != naive[i] {
				t.Fatalf("trace entry %d: kernel %+v, reference %+v", i, real[i], naive[i])
			}
		}
	})
}

// FuzzKernelHorizons is FuzzKernelScheduleCancel across every level of the
// timing wheel. Schedule distances are log-uniform from 0 to 2^27 µs, so
// programs reach the fine ring, the coarse ring and the overflow heap; and
// the program steps the clock with Run(until), scheduling between steps as
// the sharded runner's foreign-busy exchange does, cuts a Run short
// mid-instant, runs under an event budget and mass-cancels into compaction.
// The clock after every step is part of the trace.
//
// Input: byte 0 is the event budget (0 = none, else 4 events per unit),
// then 6-byte ops: kind, distance bit length, 24 distance bits, extra.
func FuzzKernelHorizons(f *testing.F) {
	for _, seed := range horizonSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := NewKernel()
		k.SetInvariantChecks(true)
		real := runHorizonProgram(data, realQueue{k: k})
		naive := runHorizonProgram(data, &naiveQueue{})
		if len(real) != len(naive) {
			t.Fatalf("trace length: kernel %d, reference %d", len(real), len(naive))
		}
		for i := range real {
			if real[i] != naive[i] {
				t.Fatalf("trace entry %d: kernel %+v, reference %+v", i, real[i], naive[i])
			}
		}
	})
}

// Horizon program op kinds.
const (
	hSchedule          = iota // normal event at now+distance
	hEarly                    // early event at now+distance
	hCancel                   // cancel event extra % created
	hFireSchedule             // its firing schedules a child at now+distance (early if extra is odd)
	hFireCancel               // its firing cancels event extra % created
	hStep                     // Run(now+distance), then the clock goes into the trace
	hFireCut                  // its firing spends the budget, cutting the current Run short
	hBurstOrMassCancel        // extra < 128: extra%32+1 events, extra>>5 µs apart; else cancel 3 of every 4 events
	hKinds
)

// hOp encodes one horizon program op.
func hOp(kind, bitLen byte, dist uint32, extra byte) []byte {
	return []byte{kind, bitLen, byte(dist >> 16), byte(dist >> 8), byte(dist), extra}
}

// horizonSeeds are FuzzKernelHorizons' committed seeds.
func horizonSeeds() [][]byte {
	cat := func(budget byte, ops ...[]byte) []byte {
		b := []byte{budget}
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	all := uint32(1<<24 - 1)
	return [][]byte{
		// Every level: the same page, the coarse ring, the overflow heap,
		// early and normal, with cancels, stepped out to past the horizon.
		cat(0, hOp(hSchedule, 5, all, 0), hOp(hEarly, 14, all, 0), hOp(hSchedule, 20, all, 0),
			hOp(hEarly, 26, all, 0), hOp(hSchedule, 27, all, 0), hOp(hSchedule, 27, all, 0),
			hOp(hCancel, 0, 0, 2), hOp(hFireSchedule, 23, all/3, 1), hOp(hStep, 24, all, 0),
			hOp(hEarly, 0, 0, 0), hOp(hSchedule, 0, 0, 0), hOp(hStep, 27, all, 0)),
		// Stepped runs with schedules at the clock between steps (the
		// foreign-busy pattern), including early events at the step's end.
		cat(0, hOp(hSchedule, 16, all, 0), hOp(hSchedule, 13, 5000, 0), hOp(hStep, 12, 4095, 0),
			hOp(hEarly, 0, 0, 0), hOp(hSchedule, 1, 1, 0), hOp(hStep, 13, 8191, 0),
			hOp(hEarly, 12, 100, 0), hOp(hFireSchedule, 12, 100, 0), hOp(hStep, 16, all, 0),
			hOp(hEarly, 3, 7, 0), hOp(hStep, 0, 0, 0)),
		// A cut mid-instant: a burst at one instant with a cutting event in
		// the middle, then a step and a resume.
		cat(0, hOp(hBurstOrMassCancel, 12, 777, 3), hOp(hFireCut, 12, 777, 0),
			hOp(hBurstOrMassCancel, 12, 777, 4), hOp(hEarly, 12, 777, 0), hOp(hStep, 20, all, 0),
			hOp(hSchedule, 0, 0, 0), hOp(hStep, 20, all, 0)),
		// Budget and compaction: four bursts across pages, three quarters
		// cancelled, under a 60-event budget, stepped twice.
		cat(15, hOp(hBurstOrMassCancel, 12, 4000, 31+32), hOp(hBurstOrMassCancel, 18, all, 31+64),
			hOp(hBurstOrMassCancel, 25, all, 31+96), hOp(hBurstOrMassCancel, 0, 0, 31),
			hOp(hBurstOrMassCancel, 0, 0, 200), hOp(hStep, 19, all, 0), hOp(hSchedule, 2, 3, 0),
			hOp(hStep, 27, all, 0)),
		// The re-base trap: the next event lies pages beyond until, then a
		// schedule arrives at until+1.
		cat(0, hOp(hSchedule, 20, all, 0), hOp(hSchedule, 27, all, 0), hOp(hStep, 7, 100, 0),
			hOp(hSchedule, 1, 1, 0), hOp(hEarly, 1, 1, 0), hOp(hStep, 0, 0, 0)),
	}
}

// maxHorizonEvents bounds a program's events, keeping the quadratic
// reference fast.
const maxHorizonEvents = 1000

// stepQueue is a fuzzQueue that also runs to a bound and budgets.
type stepQueue interface {
	fuzzQueue
	runUntil(until Time)
	setBudget(events uint64)
	processed() uint64
}

// runHorizonProgram executes a horizon program against one implementation
// and returns the firing trace, with the clock after each step recorded as
// idx -1.
func runHorizonProgram(data []byte, q stepQueue) []fireRec {
	var trace []fireRec
	if len(data) == 0 {
		return nil
	}
	// A cut sets the budget to the events fired so far; the next Run
	// restores the program's budget, so a cut ends only the Run it hit.
	budget := 4 * uint64(data[0])
	q.setBudget(budget)
	var cancels []func()
	cancel := func(i int) {
		if len(cancels) > 0 {
			cancels[i%len(cancels)]()
		}
	}
	var create func(kind byte, at Time, dist Time, extra byte)
	create = func(kind byte, at Time, dist Time, extra byte) {
		if len(cancels) >= maxHorizonEvents {
			return
		}
		idx := len(cancels)
		fire := func() {
			trace = append(trace, fireRec{idx: idx, at: q.now()})
			switch kind {
			case hFireSchedule:
				create(hSchedule+extra&1, q.now()+dist, 0, 0)
			case hFireCancel:
				cancel(int(extra))
			case hFireCut:
				q.setBudget(q.processed())
			}
		}
		cancels = append(cancels, q.schedule(at, kind == hEarly, fire))
	}
	ops := 0
	for i := 1; i+5 < len(data) && ops < 200; i, ops = i+6, ops+1 {
		kind, extra := data[i]%hKinds, data[i+5]
		dist := Time((uint64(data[i+2])<<16 | uint64(data[i+3])<<8 | uint64(data[i+4])) << 3 >> (27 - data[i+1]%28))
		at := q.now() + dist
		switch kind {
		case hCancel:
			cancel(int(extra))
		case hStep:
			q.setBudget(budget)
			q.runUntil(at)
			trace = append(trace, fireRec{idx: -1, at: q.now()})
		case hBurstOrMassCancel:
			if extra >= 128 {
				for j := range cancels {
					if j%4 != 0 {
						cancels[j]()
					}
				}
				continue
			}
			for j := 0; j <= int(extra%32); j++ {
				create(hSchedule, at+Time(j)*Time(extra>>5), 0, 0)
			}
		default:
			create(kind, at, dist, extra)
		}
	}
	q.setBudget(budget)
	q.runUntil(Never)
	return append(trace, fireRec{idx: -1, at: q.now()})
}

// The committed seeds must exercise what FuzzKernelHorizons exists for: at
// least one reaches the coarse ring, one the overflow heap, and one
// triggers compaction.
func TestKernelHorizonSeedsReachEveryLevel(t *testing.T) {
	var reach wheelReach
	for _, seed := range horizonSeeds() {
		k := NewKernel()
		k.SetInvariantChecks(true)
		runHorizonProgram(seed, realQueue{k: k, reach: &reach})
	}
	if !reach.coarse || !reach.far || !reach.compacted {
		t.Fatalf("seeds reach coarse=%v far=%v compaction=%v, want all", reach.coarse, reach.far, reach.compacted)
	}
}
