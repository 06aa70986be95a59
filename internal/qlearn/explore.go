package qlearn

import (
	"fmt"
	"math"

	"qma/internal/sim"
)

// ExploreContext carries the local observations an exploration strategy may
// use when deciding whether to act randomly.
type ExploreContext struct {
	// Now is the current simulation time (used by time-decaying strategies).
	Now sim.Time
	// QueueLevel is the local transmit-queue occupancy.
	QueueLevel int
	// AvgNeighborQueue is the mean of the most recently overheard queue
	// levels of all neighbours (piggybacked in data frames, §4.2); zero when
	// nothing was overheard yet.
	AvgNeighborQueue float64
}

// Explorer decides the probability ρ of selecting a random action instead of
// the policy action (Algorithm 1).
type Explorer interface {
	// Rate returns ρ ∈ [0, 1] for the given local observations.
	Rate(ctx ExploreContext) float64
}

// DefaultRhoTable is the paper's Fig. 4 lookup: ρ indexed by
// (local queue level − mean neighbour queue level), for differences 0
// through 8. Differences below zero explore with ρ=0 ("give neighbouring
// nodes a chance to allocate additional slots"); differences above 8 clamp
// to the last entry (0.3, "it is not desirable to execute actions with full
// randomness").
func DefaultRhoTable() []float64 {
	return []float64{0, 0.0001, 0.001, 0.008, 0.02, 0.05, 0.1, 0.18, 0.3}
}

// ParameterBased is the paper's parameter-based exploration (§4.2): ρ is a
// table lookup on the queue-level difference, so congestion raises
// exploration and a drained queue stops it — without the one-shot decay
// problem of ε-greedy. The table lookup costs no arithmetic at run time,
// matching the paper's resource argument.
type ParameterBased struct {
	// Rho is the lookup table; index i applies to a queue-level difference
	// of i (floor of the fractional difference).
	Rho []float64
}

var _ Explorer = (*ParameterBased)(nil)

// NewParameterBased returns the strategy with the paper's Fig. 4 table.
func NewParameterBased() *ParameterBased {
	return &ParameterBased{Rho: DefaultRhoTable()}
}

// paperExplorer is the one shared Fig. 4 strategy behind DefaultExplorer.
var paperExplorer Explorer = NewParameterBased()

// DefaultExplorer returns the paper's parameter-based strategy (Fig. 4) as
// one shared, immutable value: Rate only reads it, so every engine that has
// no explorer configured uses this one instead of carrying its own copy of
// the table.
func DefaultExplorer() Explorer { return paperExplorer }

// Rate implements Explorer.
func (p *ParameterBased) Rate(ctx ExploreContext) float64 {
	diff := float64(ctx.QueueLevel) - ctx.AvgNeighborQueue
	if diff <= 0 {
		return 0
	}
	idx := int(diff)
	if idx >= len(p.Rho) {
		idx = len(p.Rho) - 1
	}
	return p.Rho[idx]
}

// EpsilonGreedy is the classic exponentially decaying exploration the paper
// compares against (§4.2): ε starts at Eps0 and halves every HalfLife, never
// dropping below Min. Once decayed it cannot recover, which is exactly the
// weakness parameter-based exploration removes.
type EpsilonGreedy struct {
	// Eps0 is the initial exploration probability.
	Eps0 float64
	// HalfLife is the time over which ε halves; zero disables decay.
	HalfLife sim.Time
	// Min is the exploration floor.
	Min float64
}

var _ Explorer = (*EpsilonGreedy)(nil)

// Rate implements Explorer.
func (e *EpsilonGreedy) Rate(ctx ExploreContext) float64 {
	eps := e.Eps0
	if e.HalfLife > 0 {
		eps *= math.Exp2(-float64(ctx.Now) / float64(e.HalfLife))
	}
	if eps < e.Min {
		eps = e.Min
	}
	return eps
}

// Constant explores with a fixed probability, the second baseline of §4.2.
type Constant struct {
	// Eps is the fixed exploration probability.
	Eps float64
}

var _ Explorer = (*Constant)(nil)

// Rate implements Explorer.
func (c Constant) Rate(ExploreContext) float64 { return c.Eps }

// ValidateExplorer reports an error for an exploration strategy no engine
// can run: an ε-greedy Eps0 or Min, or a Constant Eps, outside [0,1] (NaN
// included), or a negative ε-greedy HalfLife. nil and the other strategies
// pass.
func ValidateExplorer(e Explorer) error {
	switch x := e.(type) {
	case *EpsilonGreedy:
		switch {
		case !(x.Eps0 >= 0 && x.Eps0 <= 1):
			return fmt.Errorf("qlearn: ε-greedy eps0=%v out of [0,1]", x.Eps0)
		case !(x.Min >= 0 && x.Min <= 1):
			return fmt.Errorf("qlearn: ε-greedy min=%v out of [0,1]", x.Min)
		case x.HalfLife < 0:
			return fmt.Errorf("qlearn: ε-greedy halflife=%v must not be negative", x.HalfLife)
		}
	case *Constant:
		return ValidateExplorer(*x)
	case Constant:
		if !(x.Eps >= 0 && x.Eps <= 1) {
			return fmt.Errorf("qlearn: constant eps=%v out of [0,1]", x.Eps)
		}
	}
	return nil
}

// None never explores; useful for replaying fixed policies in tests.
type None struct{}

var _ Explorer = None{}

// Rate implements Explorer.
func (None) Rate(ExploreContext) float64 { return 0 }
