package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// EventID is a generation-counted handle to a scheduled callback, returned
// by Kernel.Schedule, Kernel.At and Kernel.AtCall. It is a small value (not
// a pointer into the kernel's event storage), so the kernel is free to
// recycle the underlying slot after the event fires or is compacted away:
// a stale handle becomes inert rather than aliasing a newer event. The zero
// value is inert, and so is every handle of a kernel whose storage was
// handed on by Recycle.
type EventID struct {
	k   *Kernel
	idx uint32
	gen uint32
}

// live reports whether the handle still refers to its original, un-fired
// occupant of the slot.
func (e EventID) live() bool {
	return e.k != nil && int(e.idx) < len(e.k.slots) && e.k.slots[e.idx].gen == e.gen
}

// At reports the instant the event is scheduled for, or 0 when the event
// already fired, was recycled, or e is the zero value.
func (e EventID) At() Time {
	if !e.live() {
		return 0
	}
	return e.k.slots[e.idx].at
}

// Pending reports whether the event is still queued and will fire.
func (e EventID) Pending() bool {
	return e.live() && !e.k.slots[e.idx].canceled
}

// Cancel prevents the event from firing. Cancelling an already fired,
// already cancelled or recycled event — or the zero EventID — is a no-op.
// The event's callback (and everything it captures) is released immediately;
// the queue entry itself is dropped lazily.
func (e EventID) Cancel() {
	if !e.live() {
		return
	}
	k := e.k
	s := &k.slots[e.idx]
	if s.canceled {
		return
	}
	s.canceled = true
	s.fn, s.arg = nil, nil
	k.canceledQueued++
	k.maybeCompact()
}

// Canceled reports whether Cancel was called before the event fired. After
// the kernel recycles the slot for a newer event the answer degrades to
// false (the handle is stale and carries no history).
func (e EventID) Canceled() bool {
	if e.k == nil || int(e.idx) >= len(e.k.slots) {
		return false
	}
	s := &e.k.slots[e.idx]
	// gen == e.gen: still queued (possibly cancelled, awaiting compaction).
	// gen == e.gen+1: freed but not yet reused; the flag still describes us.
	if s.gen != e.gen && s.gen != e.gen+1 {
		return false
	}
	return s.canceled
}

// eventSlot is one arena entry. Slots are recycled through a freelist; gen
// is odd while the slot is live and even while it is free, incrementing on
// every allocation and every release so stale EventIDs can never match.
type eventSlot struct {
	at  Time
	seq uint64
	// fn(arg) is the callback; At passes its closure as the arg of
	// callClosure, so every event has this one form.
	fn  func(any)
	arg any
	// next links the slot into its wheel bucket or coarse page (stored as
	// idx+1; 0 terminates).
	next     uint32
	gen      uint32
	canceled bool
	// early events fire before every normal event sharing their timestamp,
	// regardless of scheduling order (see AtCallEarly).
	early bool
}

// The timing wheel's geometry. A page is fineSize consecutive µs instants;
// the fine ring holds the current page with one bucket per instant, the
// coarse ring holds the next coarseSize-1 pages as unsorted FIFO lists, and
// anything later waits in the overflow heap. Each level has at most 64
// occupancy words, so one summary word indexes it.
const (
	fineBits   = 12
	fineSize   = 1 << fineBits // 4.096 ms of instants
	fineMask   = fineSize - 1
	coarseSize = 1 << 10 // pages: a 4.19 s horizon
	coarseMask = coarseSize - 1
)

// occupancy is a two-level bitmap over up to 4096 positions: bit i of
// words[i/64] is set while position i holds events, and bit w of sum while
// words[w] is non-zero.
type occupancy struct {
	sum   uint64
	words [64]uint64
}

func (o *occupancy) set(i int) {
	w := i >> 6
	o.words[w] |= 1 << (i & 63)
	o.sum |= 1 << w
}

func (o *occupancy) unset(i int) {
	w := i >> 6
	o.words[w] &^= 1 << (i & 63)
	if o.words[w] == 0 {
		o.sum &^= 1 << w
	}
}

// first returns the lowest set position, or -1.
func (o *occupancy) first() int {
	if o.sum == 0 {
		return -1
	}
	w := bits.TrailingZeros64(o.sum)
	return w<<6 | bits.TrailingZeros64(o.words[w])
}

// firstFrom returns the lowest set position >= i, or -1.
func (o *occupancy) firstFrom(i int) int {
	w := i >> 6
	if m := o.words[w] & (^uint64(0) << (i & 63)); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	s := o.sum & (^uint64(0) << (w + 1))
	if s == 0 {
		return -1
	}
	w = bits.TrailingZeros64(s)
	return w<<6 | bits.TrailingZeros64(o.words[w])
}

// bucket is one instant of the fine ring: a FIFO chain whose early events
// form a prefix, each part in sequence order. head, tail and early (the last
// early event) are idx+1; 0 = none.
type bucket struct {
	head, tail, early uint32
}

// chain is one page of the coarse ring: its events in scheduling order.
type chain struct {
	head, tail uint32
}

// Kernel is a sequential discrete event simulator. It is not safe for
// concurrent use; replicated runs each own a private Kernel.
//
// Events live in a kernel-owned arena and are ordered by one two-level
// timing wheel. The fine ring has a bucket per µs instant of the current
// page; Run dispatches straight from the earliest occupied bucket, found
// with two TrailingZeros64 over the occupancy bitmap. Later pages wait in
// the coarse ring and are cascaded into the fine ring when their page comes
// up; events beyond the coarse horizon wait in a binary heap. Firing order
// is exactly (time, early first, scheduling order), because a page receives
// its overflow events, then its coarse events, before anything can be
// scheduled into it directly. Deep in a long burst of events at one
// instant, Run prefetches the next event's context while the current one
// runs (ContextPrefetchBytes, prefetchAfter), so callbacks over cold
// contexts overlap their memory stalls. Steady state performs no
// allocations.
type Kernel struct {
	slots []eventSlot
	free  []uint32 // freelist of recycled slot indices

	// page is the page number (time >> fineBits) the fine ring holds. It
	// never exceeds the clock's page, so every schedule lands on or after it.
	page      Time
	fine      []bucket // fineSize buckets, indexed by time & fineMask
	coarse    []chain  // coarseSize pages, indexed by page & coarseMask
	far       []uint32 // binary min-heap by (at, seq) beyond the coarse horizon
	fineOcc   occupancy
	coarseOcc occupancy

	now Time
	seq uint64
	// queued counts events that are scheduled but have not yet fired or
	// been dropped, cancelled ones included.
	queued int
	// canceledQueued counts cancelled events still occupying queue entries;
	// when they dominate the queue it is compacted.
	canceledQueued int
	// processed counts events that actually fired (cancelled events are
	// excluded); exposed for benchmarks and sanity checks.
	processed uint64

	// budgetEvents bounds the lifetime processed count when positive
	// (SetBudget); budgetHit latches that a Run stopped early on it.
	budgetEvents uint64
	budgetHit    bool

	// invariantChecks enables the opt-in runtime self-checks (time order on
	// dispatch). Off by default: the checks are for tests and fuzzing.
	invariantChecks bool
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{
		slots:  make([]eventSlot, 0, 1024),
		fine:   make([]bucket, fineSize),
		coarse: make([]chain, coarseSize),
	}
}

// Recycle returns a new kernel, clock at zero and queue empty, that takes
// over k's event arena and wheel arrays, so back-to-back runs do not
// allocate them afresh. k keeps its clock and counters for reading (Now,
// Processed, BudgetExhausted), its handles go inert, and it must not
// schedule or run again. The new kernel behaves exactly like NewKernel's.
func (k *Kernel) Recycle() *Kernel {
	clear(k.slots) // drop every callback the old run still references
	clear(k.fine)
	clear(k.coarse)
	n := &Kernel{
		slots:  k.slots[:0],
		free:   k.free[:0],
		fine:   k.fine,
		coarse: k.coarse,
		far:    k.far[:0],
	}
	k.slots, k.free, k.fine, k.coarse, k.far = nil, nil, nil, nil, nil
	k.queued, k.canceledQueued = 0, 0
	return n
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of queued (possibly cancelled) events.
func (k *Kernel) Pending() int { return k.queued }

// Processed reports how many events have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Live reports the number of queued events that will actually fire
// (cancelled entries awaiting compaction are excluded).
func (k *Kernel) Live() int { return k.queued - k.canceledQueued }

// SetBudget bounds the kernel's remaining work: once the lifetime processed
// count reaches maxEvents (0 = unlimited), the run stops early and
// BudgetExhausted reports true. The budget is cumulative across Run calls,
// so a driver stepping the kernel in epochs (the sharded scheduler)
// truncates at the same event as one continuous Run. This is the opt-in
// guard for replicated sweeps — a runaway replication is truncated and
// marked, deterministically, instead of hanging the whole sweep.
func (k *Kernel) SetBudget(maxEvents uint64) { k.budgetEvents = maxEvents }

// BudgetExhausted reports whether any Run so far stopped early because a
// SetBudget limit expired.
func (k *Kernel) BudgetExhausted() bool { return k.budgetHit }

// SetInvariantChecks toggles the kernel's opt-in runtime self-checks
// (dispatched events must never travel back in time, and must sit in the
// bucket of their own instant). Tests and the fuzzing harnesses enable
// them; production sweeps leave them off.
func (k *Kernel) SetInvariantChecks(on bool) { k.invariantChecks = on }

// ctx renders the kernel's position for panic messages, so a post-mortem
// knows when the impossible happened and how much work was still queued.
func (k *Kernel) ctx() string {
	return fmt.Sprintf("now=%v processed=%d live=%d", k.now, k.processed, k.Live())
}

// Schedule enqueues fn to run after delay d (d must be >= 0) and returns a
// cancellable handle.
func (k *Kernel) Schedule(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d (%s)", d, k.ctx()))
	}
	return k.At(k.now+d, fn)
}

// At enqueues fn to run at absolute time t (t must not be in the past) and
// returns a cancellable handle.
func (k *Kernel) At(t Time, fn func()) EventID {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil event function (%s)", k.ctx()))
	}
	return k.schedule(t, callClosure, fn, false)
}

// callClosure is the callback of every At event: its arg is the closure.
// A func value is pointer-shaped, so boxing it in the arg does not allocate.
func callClosure(fn any) { fn.(func())() }

// AtCall enqueues fn(arg) to run at absolute time t. Unlike At it needs no
// closure: hot paths keep one long-lived fn and pass per-event context
// through arg (a pointer in an interface does not allocate), which keeps
// scheduling entirely allocation-free.
func (k *Kernel) AtCall(t Time, fn func(arg any), arg any) EventID {
	return k.schedule(t, fn, arg, false)
}

// AtCallEarly is AtCall for state-expiry bookkeeping: the event fires at t
// before every normal event scheduled for the same instant, regardless of
// scheduling order. Simulation layers use it to retire state whose validity
// interval is half-open [start, t) — e.g. the radio medium's channel-busy
// counters — so that a normal event executing exactly at t already observes
// the state as expired. Early events must not have observable side effects
// beyond such bookkeeping: among themselves they still fire in scheduling
// order, but their position relative to normal events differs from plain
// AtCall.
func (k *Kernel) AtCallEarly(t Time, fn func(arg any), arg any) EventID {
	return k.schedule(t, fn, arg, true)
}

// schedule takes a slot from the freelist (or grows the arena), stamps it
// with t, the next sequence number and the callback, and files it into the
// wheel. An empty queue lets the fine ring jump to the clock's page first,
// so a kernel that idled across pages schedules straight into fine buckets
// again.
func (k *Kernel) schedule(t Time, fn func(any), arg any, early bool) EventID {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil event function (%s)", k.ctx()))
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule into the past: at=%v (%s)", t, k.ctx()))
	}
	k.seq++
	var idx uint32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, eventSlot{})
		idx = uint32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.at, s.seq, s.fn, s.arg = t, k.seq, fn, arg
	s.gen++ // odd: live
	s.canceled, s.early, s.next = false, early, 0
	id := EventID{k: k, idx: idx, gen: s.gen}
	if k.queued == 0 {
		k.page = k.now >> fineBits
	}
	k.queued++
	k.place(idx, t, early)
	return id
}

// release returns a fired or compacted slot to the freelist, dropping the
// callback (and everything it captures) immediately.
func (k *Kernel) release(idx uint32) {
	s := &k.slots[idx]
	s.fn, s.arg = nil, nil
	s.gen++ // even: free
	k.free = append(k.free, idx)
}

// place files a slot by its page's distance from the fine ring: into its
// instant's bucket, onto its coarse page, or into the overflow heap.
func (k *Kernel) place(idx uint32, t Time, early bool) {
	p := t >> fineBits
	switch d := p - k.page; {
	case d == 0:
		k.fineAdd(idx, int(t&fineMask), early)
	case d < coarseSize:
		i := int(p & coarseMask)
		c := &k.coarse[i]
		if c.head == 0 {
			c.head = idx + 1
			k.coarseOcc.set(i)
		} else {
			k.slots[c.tail-1].next = idx + 1
		}
		c.tail = idx + 1
	default:
		k.farPush(idx)
	}
}

// fineAdd appends a slot to bucket i: a normal event at the tail, an early
// one after the bucket's last early event. Slots arrive in sequence order
// (see advance), so both parts stay in sequence order.
func (k *Kernel) fineAdd(idx uint32, i int, early bool) {
	b := &k.fine[i]
	n := idx + 1
	switch {
	case b.head == 0:
		b.head, b.tail = n, n
		k.fineOcc.set(i)
	case !early:
		k.slots[b.tail-1].next = n
		b.tail = n
		return
	case b.early == 0:
		k.slots[idx].next = b.head
		b.head = n
	default:
		last := &k.slots[b.early-1]
		k.slots[idx].next = last.next
		last.next = n
		if b.tail == b.early {
			b.tail = n
		}
	}
	if early {
		b.early = n
	}
}

// advance moves the fine ring to the next occupied page and cascades that
// page's events into their buckets: overflow events first, then the coarse
// list. Every overflow event for a page was scheduled before the page came
// within the coarse horizon, hence before any coarse event for it, and both
// come before anything scheduled into the page directly; so the buckets end
// up in sequence order. advance refuses, returning false, when the page
// starts after until: the ring must never pass the clock Run leaves behind,
// or a later schedule between the two would land behind the ring.
func (k *Kernel) advance(until Time) bool {
	next := Never
	start := int((k.page + 1) & coarseMask)
	ci := k.coarseOcc.firstFrom(start)
	if ci < 0 {
		ci = k.coarseOcc.first()
	}
	if ci >= 0 {
		next = k.page + 1 + Time((ci-start)&coarseMask)
	}
	if len(k.far) > 0 {
		if p := k.slots[k.far[0]].at >> fineBits; p < next {
			next = p
		}
	}
	if next == Never || next<<fineBits > until {
		return false
	}
	k.page = next
	for len(k.far) > 0 && k.slots[k.far[0]].at>>fineBits == next {
		idx := k.farPop()
		s := &k.slots[idx]
		s.next = 0
		k.fineAdd(idx, int(s.at&fineMask), s.early)
	}
	if ci >= 0 && int(next&coarseMask) == ci {
		c := &k.coarse[ci]
		for n := c.head; n != 0; {
			s := &k.slots[n-1]
			idx := n - 1
			n = s.next
			s.next = 0
			k.fineAdd(idx, int(s.at&fineMask), s.early)
		}
		*c = chain{}
		k.coarseOcc.unset(ci)
	}
	return true
}

// farLess orders overflow events by (time, sequence).
func (k *Kernel) farLess(a, b uint32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// farPush appends idx to the overflow heap and sifts it up.
func (k *Kernel) farPush(idx uint32) {
	k.far = append(k.far, idx)
	i := len(k.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.farLess(k.far[i], k.far[p]) {
			break
		}
		k.far[i], k.far[p] = k.far[p], k.far[i]
		i = p
	}
}

// farPop removes and returns the overflow heap's minimum.
func (k *Kernel) farPop() uint32 {
	top := k.far[0]
	n := len(k.far) - 1
	k.far[0] = k.far[n]
	k.far = k.far[:n]
	k.farDown(0)
	return top
}

func (k *Kernel) farDown(i int) {
	n := len(k.far)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && k.farLess(k.far[c+1], k.far[c]) {
			c++
		}
		if !k.farLess(k.far[c], k.far[i]) {
			return
		}
		k.far[i], k.far[c] = k.far[c], k.far[i]
		i = c
	}
}

// compactThreshold is the minimum number of cancelled entries before lazy
// compaction kicks in; below it, dropping them at dispatch is cheaper.
const compactThreshold = 64

// maybeCompact rebuilds the queue without cancelled entries once they make
// up more than half of it. Cancellation is otherwise lazy (entries of
// cancelled events are dropped when their instant dispatches), so a
// workload that cancels almost everything it schedules — e.g. ACK timers —
// cannot grow the queue without bound. It may run from inside a callback:
// Run looks up the earliest bucket afresh for every event.
func (k *Kernel) maybeCompact() {
	if k.canceledQueued <= compactThreshold || k.canceledQueued*2 <= k.queued {
		return
	}
	removed := 0
	for ws := k.fineOcc.sum; ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		for m := k.fineOcc.words[w]; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			b := &k.fine[i]
			b.head, b.tail, b.early = k.compactChain(b.head, &removed)
			if b.head == 0 {
				k.fineOcc.unset(i)
			}
		}
	}
	for ws := k.coarseOcc.sum; ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		for m := k.coarseOcc.words[w]; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			c := &k.coarse[i]
			c.head, c.tail, _ = k.compactChain(c.head, &removed)
			if c.head == 0 {
				k.coarseOcc.unset(i)
			}
		}
	}
	kept := k.far[:0]
	for _, idx := range k.far {
		if k.slots[idx].canceled {
			k.release(idx)
			removed++
		} else {
			kept = append(kept, idx)
		}
	}
	k.far = kept
	for i := len(k.far)/2 - 1; i >= 0; i-- {
		k.farDown(i)
	}
	k.canceledQueued -= removed
	k.queued -= removed
}

// compactChain unlinks and releases the cancelled slots of the chain
// starting at head (idx+1), counting them into removed, and returns the
// surviving chain's head, tail and last early slot.
func (k *Kernel) compactChain(head uint32, removed *int) (newHead, tail, early uint32) {
	for n := head; n != 0; {
		s := &k.slots[n-1]
		next := s.next
		if s.canceled {
			k.release(n - 1)
			*removed++
		} else {
			s.next = 0
			if newHead == 0 {
				newHead = n
			} else {
				k.slots[tail-1].next = n
			}
			tail = n
			if s.early {
				early = n
			}
		}
		n = next
	}
	return newHead, tail, early
}

// liveBy reports whether a live (not cancelled) event is queued at or
// before until. Only a Run cut short by its budget asks, so a plain scan of
// the whole wheel is affordable.
func (k *Kernel) liveBy(until Time) bool {
	live := func(n uint32) bool {
		for ; n != 0; n = k.slots[n-1].next {
			if s := &k.slots[n-1]; !s.canceled && s.at <= until {
				return true
			}
		}
		return false
	}
	for _, b := range k.fine {
		if live(b.head) {
			return true
		}
	}
	for _, c := range k.coarse {
		if live(c.head) {
			return true
		}
	}
	for _, idx := range k.far {
		if s := &k.slots[idx]; !s.canceled && s.at <= until {
			return true
		}
	}
	return false
}

// Run executes events in timestamp order until the queue is empty or the
// next event lies strictly after `until`. The clock is left at the time of
// the last executed event, or at `until` once nothing queued remains at or
// before it, so a Run cut short by the budget never moves the clock past a
// live queued event.
func (k *Kernel) Run(until Time) {
	cut := false
	// burst counts the events dispatched so far at instant burstAt.
	burstAt, burst := Time(-1), 0
	for k.queued > 0 {
		if k.budgetEvents > 0 && k.processed >= k.budgetEvents {
			k.budgetHit = true
			cut = true
			break
		}
		i := k.fineOcc.first()
		if i < 0 {
			if !k.advance(until) {
				break
			}
			i = k.fineOcc.first()
		}
		t := k.page<<fineBits | Time(i)
		if t > until {
			break
		}
		if t != burstAt {
			burstAt, burst = t, 0
		}
		burst++
		b := &k.fine[i]
		idx := b.head - 1
		s := &k.slots[idx]
		b.head = s.next
		if b.early == idx+1 {
			b.early = 0
		}
		if b.head == 0 {
			b.tail = 0
			k.fineOcc.unset(i)
		} else if burst >= prefetchAfter {
			// The bucket's next event fires at this same instant, deep in
			// a long burst: start loading its context while this one runs.
			prefetchContext(&k.slots[b.head-1].arg)
		}
		k.queued--
		if s.canceled {
			k.canceledQueued--
			k.release(idx)
			continue
		}
		if k.invariantChecks && (s.at < k.now || s.at != t) {
			panic(fmt.Sprintf("sim: event order violated: popped at=%v from the bucket of %v (%s)", s.at, t, k.ctx()))
		}
		// Copy out before releasing: the slot is recycled before the
		// callback runs, so the callback may reuse it (and may grow the
		// arena, invalidating s).
		fn, arg := s.fn, s.arg
		k.release(idx)
		k.now = t
		k.processed++
		fn(arg)
	}
	// A Run that ended on its own has fired everything up to until; one cut
	// short must not pass a live event it left behind.
	if until != Never && k.now < until && (!cut || !k.liveBy(until)) {
		k.now = until
	}
}

// ContextPrefetchBytes is how much of the next same-instant event's context
// Run prefetches while the current event runs, once prefetchAfter events of
// the instant have fired: that many bytes behind the context's data pointer
// (the pointee of a pointer context). A context type whose dispatch should
// not stall on memory keeps the fields its callback touches within this
// prefix, as core.Engine does for a subslot tick. The prefetch is only a
// hint: it neither faults nor changes what runs.
const ContextPrefetchBytes = 7 * 64

// prefetchAfter is how many events of one instant Run dispatches before it
// starts prefetching their successors' contexts. The contexts of a short
// burst were touched moments ago and are still cached, so there the hint
// only costs: prefetching every successor slowed the radio layer's
// sharded-cells microbenchmark (bursts of at most 8) by a third. A long
// burst, such as a large cell's subslot boundary, is where contexts have
// gone cold.
const prefetchAfter = 64

// prefetchContext hints the CPU to load the first ContextPrefetchBytes of
// the value behind the context arg. An interface's second word is always a
// pointer (the value itself for pointer-shaped types, a boxed copy
// otherwise), so it is a valid prefetch address; a nil context is skipped.
func prefetchContext(arg *any) {
	if p := (*[2]unsafe.Pointer)(unsafe.Pointer(arg))[1]; p != nil {
		prefetchLines(p, ContextPrefetchBytes/64)
	}
}

// RunAll executes every queued event regardless of timestamp. Intended for
// tests; scenario code should bound runs with Run(until).
func (k *Kernel) RunAll() { k.Run(Never) }
