package mac

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/sim"
)

// Contender is an engine run by an embedded Access: Access decides when a
// transaction may start and schedules its steps, the engine decides what
// each step does.
type Contender interface {
	Engine
	// BeginAccess starts a transaction for the queue head. Access calls it
	// with a frame queued, the barring gate open and the transaction
	// slot held. The engine goes on with Access.Await or a transmission and
	// ends the transaction with Access.Done.
	BeginAccess()
	// ResumeAccess runs the step the engine last scheduled with
	// Access.Await.
	ResumeAccess(step int)
}

// Access is the shared contention-access state machine of the engines that
// contend for the CAP one transaction at a time (CSMA/CA, ALOHA, the slot
// bandit). It embeds the node's Base and implements Base, Deliver, Start,
// Enqueue and Reboot of Engine for them; the engine embeds it by value and
// supplies only its Contender methods and TxDone.
//
// Access holds the transaction slot from the start of a transaction
// until Done, so two never overlap, and it applies the access-class
// barring gate once per fresh attempt: a barred attempt holds the slot and
// re-attempts (with a fresh draw) once the barring backoff has passed.
// Every step, the barring retry included, fires through one long-lived
// kernel callback with its context kept inline, so stepping allocates
// nothing.
//
// A power-cycle fault (Engine.Reboot) must not let a step scheduled before
// the reboot operate on the flushed queue, yet the step must still fire:
// kernel event counts and event budgets stay the same whether or not a
// node reboots mid-step. Restart therefore detaches a pending step instead
// of cancelling it; the orphaned event fires later as a no-op.
type Access struct {
	base  Base
	owner Contender

	// active holds the transaction slot.
	active bool

	// step is the pending step's argument to ResumeAccess, or
	// barringRetry.
	step int

	// tok identifies the live schedule. Each scheduled event carries the
	// token current at scheduling time and runs the step only if it is
	// still current. first is the token a node uses until a reboot finds a
	// step in flight, so a node that never reboots mid-step allocates
	// nothing.
	tok   *accessToken
	first accessToken
}

// accessToken is the kernel-event argument of a scheduled step.
type accessToken struct {
	a       *Access
	pending bool
}

// barringRetry is the step of a pending re-attempt after a barring
// backoff; engine steps are never negative.
const barringRetry = -1

// Init initialises a in place, with owner the engine that embeds it. a
// starts transactions from cfg.OnAccept, so cfg must leave that hook nil.
// The Access must not be copied after Init.
func (a *Access) Init(cfg Config, owner Contender) {
	if cfg.OnAccept != nil {
		panic("mac: Config.OnAccept is owned by mac.Access")
	}
	cfg.OnAccept = a.kick
	a.base.Init(cfg, owner)
	a.owner = owner
	a.first = accessToken{a: a}
	a.tok = &a.first
}

// Base implements Engine.
func (a *Access) Base() *Base { return &a.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (a *Access) Deliver(f *frame.Frame) { a.base.Deliver(f) }

// Start implements Engine.
func (a *Access) Start() { a.kick() }

// Enqueue implements Engine; an accepted frame starts a transaction when
// none is running (through the Base's OnAccept hook).
func (a *Access) Enqueue(f *frame.Frame) bool { return a.base.Enqueue(f) }

// Reboot implements Engine for an engine whose only volatile state is its
// transaction: Base.Reboot, then Restart. The next transaction starts from
// scratch.
func (a *Access) Reboot() {
	a.base.Reboot()
	a.Restart()
}

// Restart ends the transaction of a rebooted node: it orphans the pending
// step (it still fires, as a no-op), releases the transaction slot and
// starts a transaction for whatever is queued. An engine with learning
// state of its own calls Base.Reboot, resets that state, then Restart.
func (a *Access) Restart() {
	if a.tok.pending {
		a.tok = &accessToken{a: a}
	}
	a.active = false
	a.kick()
}

// Await schedules step (non-negative) of the running transaction at the
// absolute instant t, when Access hands it to ResumeAccess. At most one
// step may be pending.
func (a *Access) Await(t sim.Time, step int) {
	if a.tok.pending {
		panic(fmt.Sprintf("mac: a second access step scheduled at %v while one is pending", t))
	}
	a.step = step
	a.tok.pending = true
	a.base.cfg.Kernel.AtCall(t, resumeAccess, a.tok)
}

// Done ends the running transaction and starts the next one if frames
// wait.
func (a *Access) Done() {
	a.active = false
	a.kick()
}

// kick starts a transaction for the queue head if none is running.
func (a *Access) kick() {
	if a.active || a.base.queue.Empty() {
		return
	}
	a.active = true
	if barred, retryAt := a.base.AccessBarred(); barred {
		a.Await(retryAt, barringRetry)
		return
	}
	a.owner.BeginAccess()
}

// resumeAccess is the kernel callback behind every step.
func resumeAccess(x any) {
	tok := x.(*accessToken)
	tok.pending = false
	a := tok.a
	if a.tok != tok {
		return // orphaned by a reboot: the step belongs to the node's previous life
	}
	if a.step == barringRetry {
		a.Done()
		return
	}
	a.owner.ResumeAccess(a.step)
}
