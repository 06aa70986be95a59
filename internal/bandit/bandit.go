// Package bandit implements a stateless multi-armed-bandit MAC: the CAP
// subslots are the arms, the acknowledgement outcome of a transmission in a
// subslot is the reward, and an ε-greedy or UCB1 picker chooses the next
// transmission slot. It is the cheapest learning baseline between blind
// contention (ALOHA, CSMA/CA) and QMA's full Q-learning: like QMA it can
// discover a collision-free slot schedule, but it learns a single
// value-per-slot (no state-transition structure, no discounting, no
// backoff/CCA/send action split), which is the design point of the NN-bandit
// alarm-scenario line of work (arXiv:2407.16877) reduced to a lookup table.
//
// The ε-greedy picker reuses internal/qlearn's Explorer strategies, so the
// bandit can run with a decaying ε, a constant ε, or even the paper's
// parameter-based queue-difference exploration — making the "how much does
// the state machine matter" comparison to QMA direct.
package bandit

import (
	"math"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Proto is the bandit MAC's canonical registry key.
const Proto = "bandit"

// Picker selects the arm-selection rule.
type Picker uint8

const (
	// EpsilonGreedy explores with probability ε (from the configured
	// qlearn.Explorer) and exploits the best-valued slot otherwise.
	EpsilonGreedy Picker = iota
	// UCB1 picks the slot maximizing value + C·sqrt(ln T / n).
	UCB1
)

// String implements fmt.Stringer.
func (p Picker) String() string {
	if p == UCB1 {
		return "ucb"
	}
	return "egreedy"
}

// DefaultUCBC is the UCB1 exploration constant √2.
var DefaultUCBC = math.Sqrt2

// DefaultExplorer returns the ε-source used when none is configured: a
// decaying ε-greedy schedule (ε₀=0.3, half-life 30 s, floor 0.02).
func DefaultExplorer() qlearn.Explorer {
	return &qlearn.EpsilonGreedy{Eps0: 0.3, HalfLife: 30 * sim.Second, Min: 0.02}
}

// Options tunes a bandit engine through the protocol registry. The zero
// value (or nil options) selects ε-greedy with the default decay schedule.
type Options struct {
	// Picker selects the arm-selection rule.
	Picker Picker
	// Explorer supplies ε for the EpsilonGreedy picker (nil selects
	// DefaultExplorer). Ignored by UCB1.
	Explorer qlearn.Explorer
	// UCBC is the UCB1 exploration constant (0 selects √2). Ignored by
	// EpsilonGreedy.
	UCBC float64
}

// Config assembles a bandit engine.
type Config struct {
	// MAC configures the shared MAC base.
	MAC mac.Config
	// Options selects the picker and its exploration parameters.
	Options
	// Rng drives exploration decisions; required.
	Rng *sim.Rand
}

// Stats aggregates bandit-specific counters.
type Stats struct {
	// Pulls counts arm selections (scheduled transmission attempts).
	Pulls uint64
	// Explorations counts randomly selected arms (ε-greedy only).
	Explorations uint64
	// Deferrals counts pulls whose transaction did not fit into the CAP
	// from the chosen slot; they are rewarded 0 so the bandit learns to
	// avoid slots too close to the CAP end.
	Deferrals uint64
	// BusyWaits counts pulls postponed a superframe because the node was
	// mid-activity at the slot boundary (no reward charged).
	BusyWaits uint64
}

// Engine is one node's bandit MAC. The embedded mac.Access runs its
// pulls; the pulled arm is the step it awaits.
type Engine struct {
	mac.Access
	cfg Config

	// value and count hold the per-slot sample-mean reward estimates.
	// Values start at 1 (optimistic for a {0,1} reward) so every slot is
	// tried once before exploitation settles; the first real sample
	// overwrites the prior exactly.
	value []float64
	count []uint64
	total uint64

	stats Stats
}

var _ mac.Contender = (*Engine)(nil)

// New assembles an engine from cfg, panicking on an invalid configuration.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("bandit: Rng is required")
	}
	if cfg.MAC.Clock == nil {
		panic("bandit: MAC.Clock is required")
	}
	if cfg.Explorer == nil {
		cfg.Explorer = DefaultExplorer()
	}
	if cfg.UCBC == 0 {
		cfg.UCBC = DefaultUCBC
	}
	subslots := cfg.MAC.Clock.Config().Subslots
	e := &Engine{
		cfg:   cfg,
		value: make([]float64, subslots),
		count: make([]uint64, subslots),
	}
	for i := range e.value {
		e.value[i] = 1
	}
	e.Init(cfg.MAC, e)
	return e
}

// EngineStats returns a copy of the bandit-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// Values returns a copy of the per-slot reward estimates.
func (e *Engine) Values() []float64 { return append([]float64(nil), e.value...) }

// Counts returns a copy of the per-slot pull counts.
func (e *Engine) Counts() []uint64 { return append([]uint64(nil), e.count...) }

// BestSlot reports the currently exploited arm (lowest index on ties).
func (e *Engine) BestSlot() int { return e.argmaxValue() }

// Reboot implements mac.Engine: wipe the per-slot reward estimates back
// to their optimistic prior along with the shared MAC state, then restart
// the embedded mac.Access (the pending pull still fires, as a no-op, so event
// counts do not depend on the reboot) — the bandit relearns from scratch.
func (e *Engine) Reboot() {
	e.Base().Reboot()
	for i := range e.value {
		e.value[i] = 1
		e.count[i] = 0
	}
	e.total = 0
	e.Restart()
}

// BeginAccess implements mac.Contender: it picks an arm and pulls it.
func (e *Engine) BeginAccess() { e.pull(e.pick()) }

// ResumeAccess implements mac.Contender: the pulled arm's slot has come.
func (e *Engine) ResumeAccess(m int) { e.fire(m) }

// pull schedules arm m for its next slot start.
func (e *Engine) pull(m int) { e.Await(e.nextSlotStart(m), m) }

// nextSlotStart reports the first strictly future start of subslot m.
func (e *Engine) nextSlotStart(m int) sim.Time {
	now := e.Base().Kernel().Now()
	t := e.Base().Clock().SubslotStart(now, m)
	if t <= now {
		t += e.Base().Clock().Config().SuperframeDuration()
	}
	return t
}

// pick selects the next arm.
func (e *Engine) pick() int {
	e.stats.Pulls++
	e.total++
	if e.cfg.Picker == UCB1 {
		return e.pickUCB()
	}
	rho := e.cfg.Explorer.Rate(qlearn.ExploreContext{
		Now:              e.Base().Kernel().Now(),
		QueueLevel:       e.Base().Queue().Len(),
		AvgNeighborQueue: e.Base().AvgNeighborQueue(),
	})
	if e.cfg.Rng.Float64() < rho {
		e.stats.Explorations++
		return e.cfg.Rng.Intn(len(e.value))
	}
	return e.argmaxValue()
}

func (e *Engine) argmaxValue() int {
	best := 0
	for m := 1; m < len(e.value); m++ {
		if e.value[m] > e.value[best] {
			best = m
		}
	}
	return best
}

func (e *Engine) pickUCB() int {
	// Unpulled arms first, in slot order.
	for m, n := range e.count {
		if n == 0 {
			return m
		}
	}
	lnT := math.Log(float64(e.total))
	best, bestScore := 0, math.Inf(-1)
	for m := range e.value {
		score := e.value[m] + e.cfg.UCBC*math.Sqrt(lnT/float64(e.count[m]))
		if score > bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// update folds one reward sample into arm m's running mean.
func (e *Engine) update(m int, reward float64) {
	e.count[m]++
	e.value[m] += (reward - e.value[m]) / float64(e.count[m])
}

// fire attempts a transmission at the start of arm m's subslot.
func (e *Engine) fire(m int) {
	f := e.Base().Queue().Head()
	if f == nil {
		// The queue drained (frame dropped elsewhere); no reward.
		e.Done()
		return
	}
	now := e.Base().Kernel().Now()
	if e.Base().Busy() {
		// Mid-activity (ACK duty): retry the same arm next superframe
		// without charging it a reward — the slot was never tried.
		e.stats.BusyWaits++
		e.pull(m)
		return
	}
	if !e.Base().Clock().FitsInCAP(now, f.ExchangeDuration()) {
		// The transaction cannot complete from this slot: reward 0 so the
		// bandit learns to avoid slots hugging the CAP end, then pick
		// again.
		e.stats.Deferrals++
		e.update(m, 0)
		e.Done()
		return
	}
	e.Base().SendFrameAt(f, 0, uint32(m))
}

// TxDone implements mac.Engine: the transmission's outcome is the pulled
// arm's reward.
func (e *Engine) TxDone(f *frame.Frame, m uint32, success bool) {
	reward := 0.0
	if success {
		reward = 1
	}
	e.update(int(m), reward)
	e.Base().FinishFrame(f, success)
	e.Done()
}
