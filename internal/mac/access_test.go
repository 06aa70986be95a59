package mac

import (
	"strings"
	"testing"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// stepDelay is the one step of a fakeContender transaction: BeginAccess
// waits this long, then the step broadcasts the queue head.
const stepDelay = 10 * sim.Microsecond

// fakeStep is the step a fakeContender schedules.
const fakeStep = 7

// fakeContender is the smallest engine on mac.Access. It records
// when transactions began and which steps reached it.
type fakeContender struct {
	Access
	begins  []sim.Time
	resumes int
}

func (e *fakeContender) BeginAccess() {
	now := e.Base().Kernel().Now()
	e.begins = append(e.begins, now)
	e.Await(now+stepDelay, fakeStep)
}

func (e *fakeContender) ResumeAccess(step int) {
	if step != fakeStep {
		panic("fakeContender: resumed with a foreign step")
	}
	e.resumes++
	e.Base().SendFrame(e.Base().Queue().Head())
}

func (e *fakeContender) TxDone(f *frame.Frame, _ uint32, success bool) {
	e.Base().FinishFrame(f, success)
	e.Done()
}

// newContender builds one fakeContender on a fresh kernel and a one-node
// medium; cfg may carry a BarringRng.
func newContender(cfg Config) (*fakeContender, *sim.Kernel) {
	k := sim.NewKernel()
	m := radio.NewMedium(k, radio.NewGraphTopology(1), sim.NewRand(1))
	cfg.Kernel, cfg.Medium = k, m
	cfg.Clock = superframe.NewClock(superframe.DefaultConfig())
	e := &fakeContender{}
	e.Init(cfg, e)
	m.Attach(0, e)
	e.Start()
	return e, k
}

func broadcast(seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Dst: frame.Broadcast, Seq: seq, MPDUBytes: 30}
}

func TestAccessKickOnEmptyQueueDoesNothing(t *testing.T) {
	e, k := newContender(Config{})
	e.Start()
	k.RunAll()
	if len(e.begins) != 0 || k.Processed() != 0 {
		t.Fatalf("begins=%v events=%d on an empty queue, want none", e.begins, k.Processed())
	}
}

// TestAccessDoneRekicksWhileFramesWait queues three frames at once: the
// Access runs their transactions back to back, each beginning the moment
// the previous one is done.
func TestAccessDoneRekicksWhileFramesWait(t *testing.T) {
	e, k := newContender(Config{})
	for i := uint32(1); i <= 3; i++ {
		e.Enqueue(broadcast(i))
	}
	k.RunAll()
	if len(e.begins) != 3 || e.resumes != 3 {
		t.Fatalf("begins=%v resumes=%d, want 3 transactions", e.begins, e.resumes)
	}
	txn := stepDelay + broadcast(0).Duration()
	for i, at := range e.begins {
		if want := sim.Time(i) * txn; at != want {
			t.Errorf("transaction %d began at %v, want %v", i, at, want)
		}
	}
	if s := e.Base().Stats(); s.TxSuccess != 3 || !e.Base().Queue().Empty() {
		t.Fatalf("stats %+v, queue %d: want 3 sent and an empty queue", s, e.Base().Queue().Len())
	}
}

// TestAccessBarredKickHoldsSlot pins the barring gate: a barred attempt
// draws once and holds the transaction slot (a second frame neither draws
// nor begins), and its retry re-kicks once the barring backoff has passed.
func TestAccessBarredKickHoldsSlot(t *testing.T) {
	rng, ref := sim.NewRand(3), sim.NewRand(3)
	e, k := newContender(Config{BarringRng: rng})
	const backoff = 50 * sim.Millisecond
	e.Base().SetBarring(0, backoff) // p = 0: every draw is barred
	e.Enqueue(broadcast(1))
	e.Enqueue(broadcast(2))
	if s := e.Base().Stats(); s.Barred != 1 || len(e.begins) != 0 {
		t.Fatalf("barred=%d begins=%v, want one barred attempt", s.Barred, e.begins)
	}
	ref.Float64()
	if got, want := rng.Float64(), ref.Float64(); got != want {
		t.Fatal("the barred attempt did not draw exactly once")
	}
	e.Base().SetBarring(1, 0) // the gate opens before the retry
	k.RunAll()
	if len(e.begins) != 2 || e.begins[0] != backoff {
		t.Fatalf("begins=%v, want the retry to begin at %v and the second frame after it", e.begins, backoff)
	}
}

// TestAccessRebootOrphansPendingStep pins the reboot rule: a step (or a
// barring retry) pending at a reboot still fires, so the kernel event
// count is the same as without the reboot plus that event, but as a no-op;
// the transaction started after the reboot runs normally, also when its
// step shares the stale step's instant.
func TestAccessRebootOrphansPendingStep(t *testing.T) {
	clean, k := newContender(Config{})
	clean.Enqueue(broadcast(1))
	k.RunAll()
	cleanEvents := k.Processed()

	e, k := newContender(Config{})
	e.Enqueue(broadcast(1))
	e.Reboot()
	if len(e.begins) != 1 || !e.Base().Queue().Empty() {
		t.Fatalf("begins=%v queue=%d after the reboot", e.begins, e.Base().Queue().Len())
	}
	e.Enqueue(broadcast(2))
	k.RunAll()
	if len(e.begins) != 2 || e.resumes != 1 || e.Base().Stats().TxSuccess != 1 {
		t.Fatalf("begins=%v resumes=%d stats=%+v, want only the post-reboot step to run",
			e.begins, e.resumes, e.Base().Stats())
	}
	if got := k.Processed(); got != cleanEvents+1 {
		t.Fatalf("kernel processed %d events, want %d (the orphan fires as a no-op)", got, cleanEvents+1)
	}
	// A restart with nothing pending keeps the live token.
	tok := e.tok
	e.Reboot()
	if e.tok != tok {
		t.Fatal("Restart replaced the token although no step was pending")
	}

	// A pending barring retry is orphaned the same way: the reboot reopens
	// the gate, the next frame begins at once and the stale retry never
	// re-kicks.
	b, k := newContender(Config{BarringRng: sim.NewRand(3)})
	b.Base().SetBarring(0, 50*sim.Millisecond)
	b.Enqueue(broadcast(1))
	b.Reboot()
	b.Enqueue(broadcast(2))
	k.RunAll()
	if len(b.begins) != 1 || b.begins[0] != 0 || b.resumes != 1 {
		t.Fatalf("begins=%v resumes=%d, want one transaction from the reboot instant", b.begins, b.resumes)
	}
	if got := k.Processed(); got != cleanEvents+1 {
		t.Fatalf("kernel processed %d events, want %d (the orphaned retry fires as a no-op)", got, cleanEvents+1)
	}
}

func TestAccessRejectsSecondPendingStep(t *testing.T) {
	e, _ := newContender(Config{})
	e.Enqueue(broadcast(1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "second access step") {
			t.Fatalf("panic = %q, want a second-step panic", msg)
		}
	}()
	e.Await(100, fakeStep)
}

func TestAccessRejectsForeignOnAccept(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "OnAccept is owned by mac.Access") {
			t.Fatalf("panic = %q, want an OnAccept ownership panic", msg)
		}
	}()
	newContender(Config{OnAccept: func() {}})
}

func TestAccessSteadyStateDoesNotAllocate(t *testing.T) {
	e, k := newContender(Config{})
	e.begins = make([]sim.Time, 0, 2048)
	f := broadcast(1)
	e.Enqueue(f)
	k.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Enqueue(f)
		k.RunAll()
	})
	if allocs != 0 {
		t.Errorf("one transaction allocates %.1f objects, want 0", allocs)
	}
	if e.resumes != 1002 {
		t.Fatalf("resumes=%d, want 1002", e.resumes)
	}
}
