package mac

import (
	"fmt"

	"qma/internal/sim"
)

// Continuation schedules the next step of an engine's channel-access
// transaction — a backoff expiry, a CCA completion, a slot boundary, a
// barring retry — without allocating. An engine runs at most one such step
// at a time, so the step's context (frame, backoff counters, arm, which step
// comes next) lives inline in the engine, and every step fires through one
// long-lived kernel callback that calls the engine's resume function.
//
// A power-cycle fault (Engine.Reboot) must not let a step scheduled before the
// reboot operate on the flushed queue, yet the step must still fire: kernel
// event counts and event budgets stay the same whether or not a node
// reboots mid-step. Orphan therefore detaches a pending step instead of
// cancelling it; the orphaned event fires later as a no-op.
type Continuation struct {
	k      *sim.Kernel
	resume func(owner any)
	owner  any
	// tok identifies the live schedule. Each scheduled event carries the
	// token current at scheduling time and runs the step only if it is
	// still current. first is the token a node uses until a reboot finds a
	// step in flight, so a node that never reboots mid-step allocates
	// nothing.
	tok   *contToken
	first contToken
}

// contToken is the kernel-event argument of a scheduled step.
type contToken struct {
	c       *Continuation
	pending bool
}

// Init binds c to kernel k: every step it schedules calls resume(owner).
// resume should be a plain function (not a method value or closure) and
// owner a pointer, so binding allocates nothing. The Continuation must not
// be copied after Init.
func (c *Continuation) Init(k *sim.Kernel, resume func(owner any), owner any) {
	c.k, c.resume, c.owner = k, resume, owner
	c.first = contToken{c: c}
	c.tok = &c.first
}

// At schedules the engine's next step at the absolute instant t. At most
// one step may be pending.
func (c *Continuation) At(t sim.Time) {
	if c.tok.pending {
		panic(fmt.Sprintf("mac: a second continuation scheduled at %v while one is pending", t))
	}
	c.tok.pending = true
	c.k.AtCall(t, fireContinuation, c.tok)
}

// Orphan turns the pending step, if any, into a no-op that still fires on
// schedule; the next At starts from a fresh token. Engines call it from
// Reboot.
func (c *Continuation) Orphan() {
	if c.tok.pending {
		c.tok = &contToken{c: c}
	}
}

// fireContinuation is the kernel callback behind every Continuation.
func fireContinuation(a any) {
	tok := a.(*contToken)
	tok.pending = false
	c := tok.c
	if c.tok != tok {
		return // orphaned by a reboot: the step belongs to the node's previous life
	}
	c.resume(c.owner)
}
