package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelRunsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		k.Schedule(d, func() { got = append(got, k.Now()) })
	}
	k.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(100, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(5, func() { fired = true })
	ev.Cancel()
	k.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

func TestKernelCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, func() {})
	ev.Cancel()
	ev.Cancel()
	var zero EventID
	zero.Cancel() // must not panic
	if zero.Canceled() || zero.Pending() || zero.At() != 0 {
		t.Error("zero EventID must be inert")
	}
	k.RunAll()
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel()
	fired := 0
	ev := k.Schedule(5, func() { fired++ })
	k.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	ev.Cancel() // must be a no-op on an already fired event
	if ev.Canceled() {
		t.Error("Canceled() = true after a post-fire Cancel")
	}
	if ev.Pending() {
		t.Error("Pending() = true after fire")
	}
	if k.Processed() != 1 {
		t.Errorf("Processed() = %d, want 1", k.Processed())
	}
}

func TestKernelStaleHandleDoesNotCancelReusedSlot(t *testing.T) {
	k := NewKernel()
	// Fire one event so its arena slot returns to the freelist.
	stale := k.Schedule(1, func() {})
	k.RunAll()
	// The next event reuses the slot; the stale handle must not reach it.
	fired := false
	fresh := k.Schedule(1, func() { fired = true })
	stale.Cancel()
	if stale.Pending() || stale.Canceled() {
		t.Error("stale handle reports live state")
	}
	if !fresh.Pending() {
		t.Error("fresh event lost its pending state to a stale Cancel")
	}
	k.RunAll()
	if !fired {
		t.Error("stale Cancel suppressed a reused slot's event")
	}
}

func TestKernelCancelReleasesClosure(t *testing.T) {
	k := NewKernel()
	big := make([]byte, 1<<20)
	ev := k.Schedule(1000, func() { _ = big[0] })
	ev.Cancel()
	// The kernel must have dropped its reference to the closure at Cancel
	// time, even though the queue entry drains lazily. We cannot observe the
	// GC directly here; assert the visible half: the event cannot fire.
	k.RunAll()
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

func TestKernelLazyCompaction(t *testing.T) {
	k := NewKernel()
	const n = 1000
	ids := make([]EventID, 0, n)
	fired := 0
	for i := 0; i < n; i++ {
		ids = append(ids, k.Schedule(Time(i+1), func() { fired++ }))
	}
	// Cancel everything but every 10th event; compaction must shrink the
	// queue well below n long before the clock drains past the timestamps.
	for i, ev := range ids {
		if i%10 != 0 {
			ev.Cancel()
		}
	}
	if p := k.Pending(); p > n/5 {
		t.Errorf("Pending() = %d after mass cancellation, want compaction below %d", p, n/5)
	}
	k.RunAll()
	if fired != n/10 {
		t.Errorf("fired = %d, want %d", fired, n/10)
	}
}

func TestKernelAtCall(t *testing.T) {
	k := NewKernel()
	type ctx struct{ hits int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).hits++ }
	k.AtCall(3, fn, c)
	ev := k.AtCall(5, fn, c)
	ev.Cancel()
	k.RunAll()
	if c.hits != 1 {
		t.Errorf("AtCall hits = %d, want 1", c.hits)
	}
}

// Property: same-timestamp events fire in scheduling order even when the
// schedule interleaves cancellations (slot reuse must not disturb the
// (time, seq) ordering of the new heap).
func TestKernelSameInstantOrderWithCancels(t *testing.T) {
	k := NewKernel()
	var order []int
	var ids []EventID
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			n := round*20 + i
			ids = append(ids, k.Schedule(100, func() { order = append(order, n) }))
		}
		// Cancel half of the newest batch to churn the freelist.
		for i := 0; i < 10; i++ {
			ids[round*20+2*i].Cancel()
		}
	}
	k.RunAll()
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
	if len(order) != 50 {
		t.Errorf("fired %d events, want 50", len(order))
	}
}

func TestKernelRunUntilBoundary(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() { fired = append(fired, 10) })
	k.Schedule(20, func() { fired = append(fired, 20) })
	k.Schedule(30, func() { fired = append(fired, 30) })
	k.Run(20) // inclusive boundary
	if len(fired) != 2 {
		t.Fatalf("Run(20) fired %d events, want 2 (boundary inclusive)", len(fired))
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	k.Run(100)
	if len(fired) != 3 {
		t.Errorf("continuation run fired %d total events, want 3", len(fired))
	}
}

func TestKernelClockAdvancesToUntil(t *testing.T) {
	k := NewKernel()
	k.Run(500)
	if k.Now() != 500 {
		t.Errorf("empty run: Now() = %v, want 500", k.Now())
	}
}

func TestKernelEventsScheduleEvents(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			k.Schedule(7, tick)
		}
	}
	k.Schedule(0, tick)
	k.RunAll()
	if count != 100 {
		t.Errorf("chained ticks = %d, want 100", count)
	}
	if k.Now() != 99*7 {
		t.Errorf("Now() = %v, want %v", k.Now(), Time(99*7))
	}
}

func TestKernelPanicsOnPastSchedule(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestKernelPanicsOnNegativeDelay(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.Schedule(-1, func() {})
}

// TestKernelPanicMessagesCarryContext pins that scheduling-misuse panics
// name the kernel time and live-event count — the difference between a
// reproducible bug report and a bare "negative delay" from somewhere inside
// a million-event run.
func TestKernelPanicMessagesCarryContext(t *testing.T) {
	check := func(name string, f func(k *Kernel)) {
		k := NewKernel()
		k.Schedule(10, func() {})
		k.Schedule(20, func() {})
		k.Run(15)
		defer func() {
			v := recover()
			if v == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			msg, ok := v.(string)
			if !ok {
				t.Errorf("%s: panic value %T is not a string", name, v)
				return
			}
			for _, want := range []string{"now=", "processed=1", "live=1"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q missing %q", name, msg, want)
				}
			}
		}()
		f(k)
	}
	check("negative delay", func(k *Kernel) { k.Schedule(-1, func() {}) })
	check("nil function", func(k *Kernel) { k.Schedule(1, nil) })
	check("past schedule", func(k *Kernel) { k.At(5, func() {}) })
}

func TestKernelLive(t *testing.T) {
	k := NewKernel()
	a := k.Schedule(10, func() {})
	k.Schedule(20, func() {})
	if got := k.Live(); got != 2 {
		t.Fatalf("Live() = %d, want 2", got)
	}
	a.Cancel()
	if got := k.Live(); got != 1 {
		t.Fatalf("Live() after cancel = %d, want 1", got)
	}
}

func TestKernelEventBudget(t *testing.T) {
	k := NewKernel()
	fired := 0
	// A self-rescheduling chain would run 100 events without a budget.
	var tick func()
	tick = func() {
		fired++
		if fired < 100 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.SetBudget(10)
	k.RunAll()
	if fired != 10 {
		t.Fatalf("fired %d events under a 10-event budget", fired)
	}
	if !k.BudgetExhausted() {
		t.Fatal("BudgetExhausted() false after truncation")
	}
	// The event budget is cumulative across Run calls: a fresh Run against
	// the same exhausted budget makes no progress (this is what lets the
	// sharded scheduler's epoch-sized Runs truncate at the same event as one
	// continuous Run would).
	k.RunAll()
	if fired != 10 {
		t.Fatalf("second Run against an exhausted budget fired up to %d, want 10", fired)
	}
	// Raising the budget resumes the chain from where it stopped.
	k.SetBudget(25)
	k.RunAll()
	if fired != 25 {
		t.Fatalf("after raising the budget, fired up to %d, want 25", fired)
	}
}

func TestKernelInvariantChecksAcceptHealthyRuns(t *testing.T) {
	k := NewKernel()
	k.SetInvariantChecks(true)
	n := 0
	for i := 0; i < 500; i++ {
		k.Schedule(Time(i%7), func() { n++ })
	}
	k.RunAll()
	if n != 500 {
		t.Fatalf("processed %d events, want 500", n)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the processed count equals the number of scheduled events.
func TestKernelOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Processed() == uint64(len(delays))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0.000000s"},
		{1500000, "1.500000s"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds(0) = %v", got)
	}
}

func TestKernelAtCallEarlyFiresBeforeNormalEventsAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []string
	push := func(s string) func(any) { return func(any) { got = append(got, s) } }
	// A normal event scheduled long before the early one must still yield.
	k.At(10, func() { got = append(got, "normal-1") })
	k.AtCall(10, push("normal-2"), nil)
	k.AtCallEarly(10, push("early-1"), nil)
	k.At(10, func() { got = append(got, "normal-3") })
	k.AtCallEarly(10, push("early-2"), nil)
	k.RunAll()
	want := []string{"early-1", "early-2", "normal-1", "normal-2", "normal-3"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestKernelAtCallEarlyKeepsTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	fn := func(any) { got = append(got, k.Now()) }
	k.AtCallEarly(20, fn, nil)
	k.At(10, func() { got = append(got, k.Now()) })
	k.AtCallEarly(5, fn, nil)
	k.RunAll()
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("fired at %v, want [5 10 20]", got)
	}
}

func TestKernelAtCallEarlyCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.AtCallEarly(10, func(any) { fired = true }, nil)
	ev.Cancel()
	k.RunAll()
	if fired {
		t.Error("cancelled early event fired")
	}
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

// A Run cut short by the event budget must leave the clock at the last
// fired event while later events at or before `until` are still queued;
// only a Run that fired everything up to `until` advances to it. With
// invariant checks on, resuming would otherwise panic on an event behind
// the clock.
func TestKernelStopOrBudgetKeepsClockBeforeQueuedEvents(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		k := NewKernel()
		k.SetInvariantChecks(true)
		var fired []Time
		for _, at := range []Time{10, 20, 30, 40, 50} {
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.SetBudget(2)
		k.Run(100)
		if len(fired) != 2 || k.Now() != 20 {
			t.Fatalf("cut Run(100): fired %v, now %v; want 2 events and now=20", fired, k.Now())
		}
		k.SetBudget(0)
		k.Run(100)
		if len(fired) != 5 || k.Now() != 100 {
			t.Fatalf("resumed Run(100): fired %v, now %v; want 5 events and now=100", fired, k.Now())
		}
	})
	// A budget spent on the last live event at or before until, with only a
	// cancelled entry and a later event left, still reaches until.
	k := NewKernel()
	k.SetInvariantChecks(true)
	k.SetBudget(1)
	k.At(10, func() {})
	k.At(20, func() {}).Cancel()
	k.At(200, func() {})
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("budget spent with nothing live left before until: now %v, want 100", k.Now())
	}
}

// The re-base trap: with the fine ring empty, the next event lay on a later
// page beyond until. Moving the ring to that page would put a schedule at
// until+1 behind the ring. The ring must stay put, for a next event on the
// coarse ring and for one in the overflow heap alike.
func TestKernelRunDoesNotRebasePastUntil(t *testing.T) {
	for _, far := range []Time{3*fineSize + 5, 2*coarseSize*fineSize + 5} {
		k := NewKernel()
		k.SetInvariantChecks(true)
		var fired []Time
		record := func() { fired = append(fired, k.Now()) }
		k.At(1, record)
		k.At(far, record)
		const until = 100
		k.Run(until)
		if k.Now() != until {
			t.Fatalf("far=%v: Run(%v) left the clock at %v", far, until, k.Now())
		}
		k.At(until+1, record)
		k.AtCallEarly(until+1, func(any) { record() }, nil)
		k.RunAll()
		want := []Time{1, until + 1, until + 1, far}
		if len(fired) != len(want) {
			t.Fatalf("far=%v: fired %v, want %v", far, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("far=%v: fired %v, want %v", far, fired, want)
			}
		}
	}
}

// Each level of the wheel routes and fires: an instant of the current page
// lands in its fine bucket, a later page within the horizon on the coarse
// ring, anything beyond in the overflow heap; and a page receives its
// overflow and coarse events before direct schedules, keeping (at, early,
// seq) order across all three.
func TestKernelWheelLevels(t *testing.T) {
	k := NewKernel()
	k.SetInvariantChecks(true)
	var got []string
	rec := func(s string) func(any) { return func(any) { got = append(got, s) } }
	horizon := Time(coarseSize * fineSize)
	target := horizon + 7 // beyond the horizon from page 0
	k.AtCall(5, rec("fine"), nil)
	k.AtCall(fineSize+5, rec("coarse"), nil)
	k.AtCall(target, rec("far-normal"), nil)
	k.AtCallEarly(target, rec("far-early"), nil)
	if k.fineOcc.first() < 0 || k.coarseOcc.first() < 0 || len(k.far) != 2 {
		t.Fatalf("levels: fine %d, coarse %d, far %d", k.fineOcc.first(), k.coarseOcc.first(), len(k.far))
	}
	// Step to the coarse event's page: target's page is now within the
	// horizon, so the next schedules for it go to the coarse ring.
	k.Run(fineSize + 5)
	k.AtCall(target, rec("coarse-normal"), nil)
	k.AtCallEarly(target, rec("coarse-early"), nil)
	if len(k.far) != 2 {
		t.Fatalf("a schedule within the horizon went to the overflow heap")
	}
	// Once target's page is the fine ring's, direct schedules come last.
	k.Run(target - 1)
	k.AtCall(target, rec("fine-normal"), nil)
	k.AtCallEarly(target, rec("fine-early"), nil)
	k.RunAll()
	want := []string{"fine", "coarse", "far-early", "coarse-early", "fine-early", "far-normal", "coarse-normal", "fine-normal"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// Recycle hands the storage on: the old kernel keeps its counters, its
// handles go inert, and the new kernel runs like a fresh one.
func TestKernelRecycle(t *testing.T) {
	old := NewKernel()
	for _, at := range []Time{3, 5000, 3 * Second, 30 * Second} {
		old.At(at, func() {})
	}
	stale := old.At(7, func() {})
	old.Run(4 * Second)
	k := old.Recycle()
	if old.Processed() != 4 || old.Now() != 4*Second {
		t.Fatalf("old kernel: processed %d, now %v", old.Processed(), old.Now())
	}
	stale.Cancel()
	if stale.Pending() || stale.Canceled() {
		t.Fatal("a recycled kernel's handle is not inert")
	}
	var fired []Time
	for _, at := range []Time{9, 9000, 40 * Second} {
		k.At(at, func() { fired = append(fired, k.Now()) })
	}
	k.RunAll()
	if k.Now() != 40*Second || len(fired) != 3 || k.Processed() != 3 || k.Pending() != 0 {
		t.Fatalf("recycled kernel: fired %v, now %v, processed %d, pending %d", fired, k.Now(), k.Processed(), k.Pending())
	}
}
