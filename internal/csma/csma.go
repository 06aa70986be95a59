// Package csma implements the two IEEE 802.15.4 channel access baselines the
// paper evaluates QMA against (§6): unslotted CSMA/CA (binary exponential
// backoff, single CCA) and slotted CSMA/CA (backoff-period alignment, double
// CCA with CW=2). Both engines share the MAC base of internal/mac, so the
// comparison with QMA differs only in the access discipline.
package csma

import (
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/sim"
)

// 802.15.4 CSMA/CA constants (IEEE Std 802.15.4-2020, §6.2.5).
const (
	// UnitBackoffPeriod is aUnitBackoffPeriod: 20 symbols = 320 µs.
	UnitBackoffPeriod = 20 * frame.SymbolDuration
	// MacMinBE is the default minimum backoff exponent.
	MacMinBE = 3
	// MacMaxBE is the default maximum backoff exponent.
	MacMaxBE = 5
	// MacMaxCSMABackoffs bounds the number of busy-CCA backoff rounds before
	// the algorithm declares a channel access failure.
	MacMaxCSMABackoffs = 4
)

// Variant selects the CSMA/CA flavour.
type Variant uint8

const (
	// Unslotted is the nonbeacon-style algorithm: one CCA after a random
	// backoff delay.
	Unslotted Variant = iota
	// Slotted aligns backoff periods to the CAP grid and requires two clear
	// CCAs (CW = 2) on consecutive backoff boundaries.
	Slotted
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Slotted {
		return "slotted"
	}
	return "unslotted"
}

// Config assembles a CSMA/CA engine.
type Config struct {
	// MAC configures the shared MAC base.
	MAC mac.Config
	// Variant selects slotted or unslotted behaviour.
	Variant Variant
	// Rng drives the random backoff; required.
	Rng *sim.Rand
	// MinBE, MaxBE and MaxBackoffs override the standard's defaults when
	// positive.
	MinBE, MaxBE, MaxBackoffs int
}

// Stats aggregates CSMA-specific counters.
type Stats struct {
	// Backoffs counts random backoff rounds started.
	Backoffs uint64
	// CCAAttempts counts CCA windows evaluated.
	CCAAttempts uint64
	// CCABusy counts CCAs that found the channel busy.
	CCABusy uint64
	// AccessFailures counts transactions abandoned after MaxBackoffs.
	AccessFailures uint64
	// Deferrals counts transactions postponed to the next CAP.
	Deferrals uint64
}

// step names the continuation a CSMA/CA transaction is waiting for.
type step uint8

const (
	// stepRetry re-attempts access once an access-class barring backoff has
	// passed.
	stepRetry step = iota
	// stepCCA starts a CCA window: after a backoff, after a deferral into
	// the next CAP or, in the slotted variant, on the boundary of the
	// second CCA.
	stepCCA
	// stepCCADone evaluates a CCA window that has just closed.
	stepCCADone
	// stepTransmit sends the frame on the boundary after the last clear CCA
	// (slotted variant).
	stepTransmit
)

// txn is the context of the transaction in flight: the frame, the
// 802.15.4 backoff counters NB and BE, the slotted variant's contention
// window CW and the step the engine waits for.
type txn struct {
	f          *frame.Frame
	nb, be, cw int
	step       step
}

// Engine is one node's CSMA/CA MAC.
type Engine struct {
	base mac.Base
	cfg  Config

	stats Stats

	// inTransaction guards against starting two concurrent transactions.
	inTransaction bool

	// tx is the running transaction's context and next schedules its steps
	// through csmaResume.
	tx   txn
	next mac.Continuation
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("csma: Rng is required")
	}
	if cfg.MAC.Clock == nil {
		panic("csma: MAC.Clock is required")
	}
	if cfg.MinBE <= 0 {
		cfg.MinBE = MacMinBE
	}
	if cfg.MaxBE <= 0 {
		cfg.MaxBE = MacMaxBE
	}
	if cfg.MaxBackoffs <= 0 {
		cfg.MaxBackoffs = MacMaxCSMABackoffs
	}
	if cfg.MAC.OnAccept != nil {
		panic("csma: MAC.OnAccept is owned by the engine")
	}
	e := &Engine{cfg: cfg}
	cfg.MAC.OnAccept = e.kick
	e.base.Init(cfg.MAC, e)
	e.next.Init(cfg.MAC.Kernel, csmaResume, e)
	return e
}

// Base implements mac.Engine.
func (e *Engine) Base() *mac.Base { return &e.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (e *Engine) Deliver(f *frame.Frame) { e.base.Deliver(f) }

// EngineStats returns a copy of the CSMA-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// Start implements mac.Engine.
func (e *Engine) Start() { e.kick() }

// Enqueue implements mac.Engine, starting a transaction when idle.
func (e *Engine) Enqueue(f *frame.Frame) bool {
	ok := e.base.Enqueue(f)
	if ok {
		e.kick()
	}
	return ok
}

// Reboot implements mac.Engine: wipe the shared MAC state and the
// transaction flag, orphan the step in flight (it still fires, as a no-op,
// so event counts do not depend on the reboot) and resume with whatever
// traffic arrives next. The next transaction starts with fresh NB and BE.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.inTransaction = false
	e.next.Orphan()
	e.kick()
}

// kick starts a transaction for the queue head if none is running.
func (e *Engine) kick() {
	if e.inTransaction || e.base.Queue().Empty() {
		return
	}
	if barred, retryAt := e.base.AccessBarred(); barred {
		// Access-class barring: hold the transaction slot and retry once the
		// barring backoff has passed (a fresh Bernoulli draw happens then).
		// A reboot orphans the retry, so a power cycle cannot re-kick into
		// a flushed queue.
		e.inTransaction = true
		e.await(retryAt, stepRetry)
		return
	}
	e.inTransaction = true
	e.beginTransaction()
}

// beginTransaction starts the CSMA/CA algorithm for the current queue head
// with fresh NB/BE state.
func (e *Engine) beginTransaction() {
	f := e.base.Queue().Head()
	if f == nil {
		e.inTransaction = false
		return
	}
	e.tx = txn{f: f, be: e.cfg.MinBE}
	e.backoff()
}

// transactionCost is the CAP time one attempt needs from the CCA start:
// CCA window(s), the frame itself and, for unicasts, the ACK exchange.
func (e *Engine) transactionCost(f *frame.Frame, ccas int) sim.Time {
	cost := sim.Time(ccas)*frame.CCADuration + f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	return cost
}

// csmaResume is the long-lived kernel callback behind every CSMA/CA step.
func csmaResume(a any) { a.(*Engine).resume() }

// await schedules step s of the running transaction at the absolute
// instant t.
func (e *Engine) await(t sim.Time, s step) {
	e.tx.step = s
	e.next.At(t)
}

// resume runs the step the transaction was waiting for.
func (e *Engine) resume() {
	switch e.tx.step {
	case stepRetry:
		e.inTransaction = false
		e.kick()
	case stepCCA:
		if e.cfg.Variant == Slotted {
			e.slottedCCA()
		} else {
			e.unslottedCCA()
		}
	case stepCCADone:
		e.ccaDone()
	case stepTransmit:
		e.transmit(e.tx.f)
	}
}

// backoff starts a random backoff round of the configured variant.
func (e *Engine) backoff() {
	if e.cfg.Variant == Slotted {
		e.slottedBackoff()
	} else {
		e.unslottedBackoff()
	}
}

// startCCA opens a CCA window now; ccaDone evaluates it.
func (e *Engine) startCCA(now sim.Time) {
	e.base.ExtendBusy(now + frame.CCADuration)
	e.await(now+frame.CCADuration, stepCCADone)
}

// ccaDone evaluates the CCA window that just closed. A busy channel (or a
// node gone busy with an ACK duty) increments NB and BE and backs off
// again, or abandons the transaction after MaxBackoffs. A clear channel
// transmits (unslotted) or, in the slotted variant, repeats the CCA on the
// next backoff boundary until CW clear CCAs have passed, then transmits on
// the boundary after the last one.
func (e *Engine) ccaDone() {
	e.stats.CCAAttempts++
	if !e.base.Medium().CCA(e.base.ID()) || e.base.Busy() {
		e.stats.CCABusy++
		e.tx.nb++
		if e.tx.be < e.cfg.MaxBE {
			e.tx.be++
		}
		if e.tx.nb > e.cfg.MaxBackoffs {
			e.accessFailure(e.tx.f)
			return
		}
		e.backoff()
		return
	}
	if e.cfg.Variant != Slotted {
		e.transmit(e.tx.f)
		return
	}
	next := e.nextBoundary(e.base.Kernel().Now() + 1)
	if e.tx.cw > 1 {
		e.tx.cw--
		e.await(next, stepCCA)
		return
	}
	e.await(next, stepTransmit)
}

// ---- Unslotted variant -------------------------------------------------

func (e *Engine) unslottedBackoff() {
	e.stats.Backoffs++
	delay := sim.Time(e.cfg.Rng.Intn(1<<uint(e.tx.be))) * UnitBackoffPeriod
	e.await(e.base.Kernel().Now()+delay, stepCCA)
}

// unslottedCCA samples the channel at the end of one CCA window, deferring
// into the next CAP when the transaction no longer fits (802.15.4: a CAP
// transaction must complete before the CFP begins).
func (e *Engine) unslottedCCA() {
	now := e.base.Kernel().Now()
	clk := e.base.Clock()
	if !clk.FitsInCAP(now, e.transactionCost(e.tx.f, 1)) {
		e.stats.Deferrals++
		next := clk.CAPEnd(now) - clk.Config().CAPDuration() // CAP start of this superframe
		if now >= next {
			next = clk.SuperframeStart(now) + clk.Config().SuperframeDuration() + clk.Config().CAPStartOffset()
		}
		e.await(next, stepCCA)
		return
	}
	e.startCCA(now)
}

// ---- Slotted variant ----------------------------------------------------

// nextBoundary reports the first backoff-period boundary at or after t,
// measured from the CAP start of t's superframe. Outside the CAP it reports
// the next CAP start.
func (e *Engine) nextBoundary(t sim.Time) sim.Time {
	clk := e.base.Clock()
	cfg := clk.Config()
	capStart := clk.SuperframeStart(t) + cfg.CAPStartOffset()
	if t < capStart {
		return capStart
	}
	capEnd := clk.CAPEnd(t)
	if t >= capEnd {
		return clk.SuperframeStart(t) + cfg.SuperframeDuration() + cfg.CAPStartOffset()
	}
	off := t - capStart
	n := (off + UnitBackoffPeriod - 1) / UnitBackoffPeriod
	b := capStart + n*UnitBackoffPeriod
	if b >= capEnd {
		return clk.SuperframeStart(t) + cfg.SuperframeDuration() + cfg.CAPStartOffset()
	}
	return b
}

// slottedBackoff counts a random number of backoff periods down from the
// next boundary and arms the first CCA (CW = 2) on the boundary where the
// countdown ends.
func (e *Engine) slottedBackoff() {
	e.stats.Backoffs++
	periods := e.cfg.Rng.Intn(1 << uint(e.tx.be))
	start := e.nextBoundary(e.base.Kernel().Now())
	target := start + sim.Time(periods)*UnitBackoffPeriod
	if !e.base.Clock().InCAP(target) || target >= e.base.Clock().CAPEnd(start) {
		// The delay runs past the CAP: the countdown pauses and resumes in
		// the next CAP (remaining periods carried over).
		capEnd := e.base.Clock().CAPEnd(start)
		remaining := (target - capEnd + UnitBackoffPeriod - 1) / UnitBackoffPeriod
		nextCAP := e.base.Clock().SuperframeStart(start) +
			e.base.Clock().Config().SuperframeDuration() +
			e.base.Clock().Config().CAPStartOffset()
		target = nextCAP + remaining*UnitBackoffPeriod
	}
	e.tx.cw = 2
	e.await(target, stepCCA)
}

// slottedCCA performs one CCA of the CW-counted sequence on a backoff
// boundary.
func (e *Engine) slottedCCA() {
	now := e.base.Kernel().Now()
	clk := e.base.Clock()
	// The remaining CCA boundaries plus the frame and ACK must fit before
	// the CAP ends, otherwise the transaction is paused until the next CAP
	// (CW resets). Each remaining CCA occupies a full backoff period because
	// the transmission starts on the boundary after the last CCA.
	f := e.tx.f
	cost := sim.Time(e.tx.cw)*UnitBackoffPeriod + f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	if !clk.FitsInCAP(now, cost) {
		e.stats.Deferrals++
		e.tx.cw = 2
		e.await(clk.SuperframeStart(now)+clk.Config().SuperframeDuration()+clk.Config().CAPStartOffset(), stepCCA)
		return
	}
	e.startCCA(now)
}

// ---- Shared tail --------------------------------------------------------

// transmit puts f on the air; TxDone routes the outcome through the retry
// policy.
func (e *Engine) transmit(f *frame.Frame) { e.base.SendFrame(f) }

// TxDone implements mac.Engine: a failed unicast restarts the whole CSMA
// algorithm (fresh NB/BE) until mac's MaxRetries is exhausted.
func (e *Engine) TxDone(f *frame.Frame, _ uint32, success bool) {
	e.base.FinishFrame(f, success)
	e.inTransaction = false
	e.kick()
}

// accessFailure abandons the transaction after MaxBackoffs busy CCAs.
func (e *Engine) accessFailure(f *frame.Frame) {
	e.stats.AccessFailures++
	e.base.DropCSMAFailure(f)
	e.inTransaction = false
	e.kick()
}
