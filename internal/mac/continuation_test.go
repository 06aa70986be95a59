package mac

import (
	"strings"
	"testing"

	"qma/internal/sim"
)

// stepper is a minimal engine driving a Continuation: it counts the steps
// that reached it and remembers when they ran.
type stepper struct {
	next  Continuation
	k     *sim.Kernel
	steps int
	at    []sim.Time
}

func stepperResume(a any) {
	s := a.(*stepper)
	s.steps++
	s.at = append(s.at, s.k.Now())
}

func newStepper() *stepper {
	s := &stepper{k: sim.NewKernel()}
	s.next.Init(s.k, stepperResume, s)
	return s
}

func TestContinuationRunsScheduledStep(t *testing.T) {
	s := newStepper()
	s.next.At(5)
	if !s.next.tok.pending {
		t.Fatal("scheduled step not pending")
	}
	s.k.RunAll()
	if s.steps != 1 || s.at[0] != 5 || s.next.tok.pending {
		t.Fatalf("steps=%d at=%v pending=%v, want one step at 5", s.steps, s.at, s.next.tok.pending)
	}
}

// TestContinuationOrphanFiresAsNoOp pins the reboot contract: an orphaned
// step still fires (the kernel counts it) but never reaches the engine,
// while the step scheduled after the orphaning runs normally — also when it
// shares the stale step's instant.
func TestContinuationOrphanFiresAsNoOp(t *testing.T) {
	s := newStepper()
	s.next.At(10)
	s.next.Orphan()
	if s.next.tok.pending {
		t.Fatal("orphaned step still pending on the fresh token")
	}
	s.next.At(10)
	s.k.RunAll()
	if s.steps != 1 {
		t.Fatalf("steps=%d, want only the post-orphan step", s.steps)
	}
	if got := s.k.Processed(); got != 2 {
		t.Fatalf("kernel processed %d events, want 2 (the orphan fires as a no-op)", got)
	}
	// Orphaning with nothing pending keeps the token and changes nothing.
	tok := s.next.tok
	s.next.Orphan()
	if s.next.tok != tok {
		t.Fatal("Orphan replaced the token although no step was pending")
	}
	s.next.At(20)
	s.k.RunAll()
	if s.steps != 2 || s.at[1] != 20 {
		t.Fatalf("steps=%d at=%v after re-arming", s.steps, s.at)
	}
}

func TestContinuationRejectsSecondPendingStep(t *testing.T) {
	s := newStepper()
	s.next.At(1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "second continuation") {
			t.Fatalf("panic = %q, want a second-continuation panic", msg)
		}
	}()
	s.next.At(2)
}

func TestContinuationSteadyStateDoesNotAllocate(t *testing.T) {
	s := newStepper()
	s.at = make([]sim.Time, 0, 2048)
	s.next.At(s.k.Now() + 1)
	s.k.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		s.next.At(s.k.Now() + 1)
		s.k.RunAll()
	})
	if allocs != 0 {
		t.Errorf("scheduling and firing a step allocates %.1f objects, want 0", allocs)
	}
}
