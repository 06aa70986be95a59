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
	// Options tunes the backoff (zero fields select the defaults).
	Options
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

// The steps a CSMA/CA transaction waits for (mac.Access.Await).
const (
	// stepCCA starts a CCA window: after a backoff, after a deferral into
	// the next CAP or, in the slotted variant, on the boundary of the
	// second CCA.
	stepCCA = iota
	// stepCCADone evaluates a CCA window that has just closed.
	stepCCADone
	// stepTransmit sends the frame on the boundary after the last clear CCA
	// (slotted variant).
	stepTransmit
)

// txn is the context of the transaction in flight: the frame, the
// 802.15.4 backoff counters NB and BE and the slotted variant's contention
// window CW.
type txn struct {
	f          *frame.Frame
	nb, be, cw int
}

// Engine is one node's CSMA/CA MAC. The embedded mac.Access runs its
// transactions.
type Engine struct {
	mac.Access
	cfg Config

	stats Stats

	// tx is the running transaction's context.
	tx txn
}

var _ mac.Contender = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("csma: Rng is required")
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
	e := &Engine{cfg: cfg}
	e.Init(cfg.MAC, e)
	return e
}

// EngineStats returns a copy of the CSMA-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// BeginAccess implements mac.Contender: it starts the CSMA/CA algorithm
// for the queue head with fresh NB/BE state.
func (e *Engine) BeginAccess() {
	e.tx = txn{f: e.Base().Queue().Head(), be: e.cfg.MinBE}
	e.backoff()
}

// ResumeAccess implements mac.Contender: it runs the step the transaction
// was waiting for.
func (e *Engine) ResumeAccess(step int) {
	switch step {
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
	e.Base().ExtendBusy(now + frame.CCADuration)
	e.Await(now+frame.CCADuration, stepCCADone)
}

// ccaDone evaluates the CCA window that just closed. A busy channel (or a
// node gone busy with an ACK duty) increments NB and BE and backs off
// again, or abandons the transaction after MaxBackoffs. A clear channel
// transmits (unslotted) or, in the slotted variant, repeats the CCA on the
// next backoff boundary until CW clear CCAs have passed, then transmits on
// the boundary after the last one.
func (e *Engine) ccaDone() {
	e.stats.CCAAttempts++
	if !e.Base().Medium().CCA(e.Base().ID()) || e.Base().Busy() {
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
	next := e.nextBoundary(e.Base().Kernel().Now() + 1)
	if e.tx.cw > 1 {
		e.tx.cw--
		e.Await(next, stepCCA)
		return
	}
	e.Await(next, stepTransmit)
}

// ---- Unslotted variant -------------------------------------------------

func (e *Engine) unslottedBackoff() {
	e.stats.Backoffs++
	delay := sim.Time(e.cfg.Rng.Intn(1<<uint(e.tx.be))) * UnitBackoffPeriod
	e.Await(e.Base().Kernel().Now()+delay, stepCCA)
}

// unslottedCCA samples the channel at the end of one CCA window, deferring
// into the next CAP when the transaction no longer fits (802.15.4: a CAP
// transaction must complete before the CFP begins).
func (e *Engine) unslottedCCA() {
	now := e.Base().Kernel().Now()
	clk := e.Base().Clock()
	// The attempt needs the CCA window, the frame and, for a unicast, the
	// ACK exchange.
	if !clk.FitsInCAP(now, frame.CCADuration+e.tx.f.ExchangeDuration()) {
		e.stats.Deferrals++
		e.Await(clk.NextCAPStart(now), stepCCA)
		return
	}
	e.startCCA(now)
}

// ---- Slotted variant ----------------------------------------------------

// nextBoundary reports the first backoff-period boundary at or after t,
// measured from the CAP start of t's superframe. Outside the CAP it reports
// the next CAP start.
func (e *Engine) nextBoundary(t sim.Time) sim.Time {
	clk := e.Base().Clock()
	if clk.InCAP(t) {
		capStart := clk.SuperframeStart(t) + clk.Config().CAPStartOffset()
		n := (t - capStart + UnitBackoffPeriod - 1) / UnitBackoffPeriod
		if b := capStart + n*UnitBackoffPeriod; b < clk.CAPEnd(t) {
			return b
		}
	}
	return clk.NextCAPStart(t)
}

// slottedBackoff counts a random number of backoff periods down from the
// next boundary and arms the first CCA (CW = 2) on the boundary where the
// countdown ends.
func (e *Engine) slottedBackoff() {
	e.stats.Backoffs++
	periods := e.cfg.Rng.Intn(1 << uint(e.tx.be))
	clk := e.Base().Clock()
	start := e.nextBoundary(e.Base().Kernel().Now())
	target := start + sim.Time(periods)*UnitBackoffPeriod
	if capEnd := clk.CAPEnd(start); !clk.InCAP(target) || target >= capEnd {
		// The delay runs past the CAP: the countdown pauses and resumes in
		// the next CAP (remaining periods carried over).
		remaining := (target - capEnd + UnitBackoffPeriod - 1) / UnitBackoffPeriod
		target = clk.NextCAPStart(start) + remaining*UnitBackoffPeriod
	}
	e.tx.cw = 2
	e.Await(target, stepCCA)
}

// slottedCCA performs one CCA of the CW-counted sequence on a backoff
// boundary.
func (e *Engine) slottedCCA() {
	now := e.Base().Kernel().Now()
	clk := e.Base().Clock()
	// The remaining CCA boundaries plus the frame and ACK must fit before
	// the CAP ends, otherwise the transaction is paused until the next CAP
	// (CW resets). Each remaining CCA occupies a full backoff period because
	// the transmission starts on the boundary after the last CCA.
	if !clk.FitsInCAP(now, sim.Time(e.tx.cw)*UnitBackoffPeriod+e.tx.f.ExchangeDuration()) {
		e.stats.Deferrals++
		e.tx.cw = 2
		e.Await(clk.NextCAPStart(now), stepCCA)
		return
	}
	e.startCCA(now)
}

// ---- Shared tail --------------------------------------------------------

// transmit puts f on the air; TxDone routes the outcome through the retry
// policy.
func (e *Engine) transmit(f *frame.Frame) { e.Base().SendFrame(f) }

// TxDone implements mac.Engine: a failed unicast restarts the whole CSMA
// algorithm (fresh NB/BE) until mac's MaxRetries is exhausted.
func (e *Engine) TxDone(f *frame.Frame, _ uint32, success bool) {
	e.Base().FinishFrame(f, success)
	e.Done()
}

// accessFailure abandons the transaction after MaxBackoffs busy CCAs.
func (e *Engine) accessFailure(f *frame.Frame) {
	e.stats.AccessFailures++
	e.Base().DropCSMAFailure(f)
	e.Done()
}
