// Package qlearn implements the distributed, cooperative multi-agent
// Q-learning core of the paper (§3): one update rule, the paper's Eq. 5,
// which extends the Lauer/Riedmiller optimistic update for stochastic
// environments with a penalty ξ and a learning rate α; the separate policy
// table that resolves duplicate optima (Eq. 3); and the exploration
// strategies of §4.2 (parameter-based, ε-greedy, constant). The plain
// optimistic update, Eq. 2, is Eq. 5 at α=1 and ξ=0 bit for bit, which is
// how the ablation runs it.
//
// Value storage is pluggable behind the Table interface: a float64 table and
// one integer table at two widths, fixed-point Q8.8 for devices without a
// floating-point unit (§3.2) and saturating 8-bit storage exercising the
// paper's future-work claim that 2–8 bits per Q-value suffice (§7).
package qlearn

import (
	"fmt"
	"math"
)

// Params holds the learning hyperparameters. The zero value is not useful;
// start from DefaultParams.
type Params struct {
	// Alpha is the learning rate α. The paper uses 0.5, which embedded
	// implementations realize as a right shift by one.
	Alpha float64
	// Gamma is the discount factor γ (paper: 0.9).
	Gamma float64
	// Xi is the penalty ξ subtracted when an update would lower the stored
	// value (Eq. 4/5); it makes the optimistic rule track stochastic
	// environments. With ξ=0 and α=1 the update is Eq. 2.
	Xi float64
	// InitQ is the initial Q-value. Conceptually −∞; the paper initializes
	// to −10, any value below the largest punishment works (§4.1). It must
	// be finite.
	InitQ float64
}

// DefaultParams returns the hyperparameters of the paper's evaluation:
// α=0.5, γ=0.9, ξ=2, Q₀=−10, Eq. 5 updates.
func DefaultParams() Params {
	return Params{Alpha: 0.5, Gamma: 0.9, Xi: 2, InitQ: -10}
}

// Validate reports a descriptive error for unusable hyperparameters. Each
// check is written as the range the value must lie in, so NaN fails it.
func (p Params) Validate() error {
	switch {
	case !(p.Alpha > 0 && p.Alpha <= 1):
		return fmt.Errorf("qlearn: alpha=%v out of (0,1]", p.Alpha)
	case !(p.Gamma >= 0 && p.Gamma <= 1):
		return fmt.Errorf("qlearn: gamma=%v out of [0,1]", p.Gamma)
	case !(p.Xi >= 0 && p.Xi <= math.MaxFloat64):
		return fmt.Errorf("qlearn: xi=%v must be finite and non-negative", p.Xi)
	case !(math.Abs(p.InitQ) <= math.MaxFloat64):
		return fmt.Errorf("qlearn: initq=%v must be finite", p.InitQ)
	}
	return nil
}

// Table stores Q-values for a finite state × action space and applies
// Eq. 5. Implementations are not safe for concurrent use; each agent owns
// its private table (the whole point of the paper's distributed algorithm
// is that no global table exists at runtime).
type Table interface {
	// States reports the number of states.
	States() int
	// Actions reports the number of actions per state.
	Actions() int
	// Q reports the stored value for (s, a), converted to float64 for
	// fixed-point implementations.
	Q(s, a int) float64
	// SetQ overwrites the stored value (used by cautious startup and tests).
	SetQ(s, a int, v float64)
	// Update applies Eq. 5 for reward r observed after taking a in s and
	// landing in next. It returns the resulting stored value and
	// whether the newly computed target strictly exceeded the previous stored
	// value (the Eq. 3 policy-improvement condition).
	Update(s, a int, r float64, next int) (stored float64, improved bool)
	// MaxQ reports max_a Q(s, a).
	MaxQ(s int) float64
	// ArgMax reports the smallest action index attaining MaxQ(s).
	ArgMax(s int) int
	// Reset restores every entry to the initial value.
	Reset()
	// MemoryBytes reports the value-storage footprint in bytes — the figure
	// behind the paper's §3.2 resource argument (the same table costs 648
	// bytes in float64, 324 in Q8.8 and 162 in 8-bit storage).
	MemoryBytes() int
}

// FloatTable is the reference float64 implementation of Table.
type FloatTable struct {
	p       Params
	states  int
	actions int
	q       []float64
}

var _ Table = (*FloatTable)(nil)

// NewFloatTable returns a states × actions table initialized to p.InitQ.
// It panics on invalid parameters or non-positive dimensions.
func NewFloatTable(states, actions int, p Params) *FloatTable {
	return NewFloatTableOn(states, actions, p, nil)
}

// NewFloatTableOn is NewFloatTable placing the values in backing, which must
// hold exactly states × actions elements (a slab slice from a run arena).
// nil backing allocates privately.
func NewFloatTableOn(states, actions int, p Params, backing []float64) *FloatTable {
	t := new(FloatTable)
	t.Init(states, actions, p, backing)
	return t
}

// Init initialises t in place with NewFloatTableOn's contract, so an engine
// can hold its table header by value next to the learner that uses it.
func (t *FloatTable) Init(states, actions int, p Params, backing []float64) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	*t = FloatTable{p: p, states: states, actions: actions, q: shapeBacking(states, actions, backing)}
	t.Reset()
}

// shapeBacking checks a table's dimensions and returns its value storage:
// backing, which must hold exactly states × actions elements, or a private
// allocation when backing is nil. It panics on non-positive dimensions or a
// mis-sized backing.
func shapeBacking[V any](states, actions int, backing []V) []V {
	if states <= 0 || actions <= 0 {
		panic(fmt.Sprintf("qlearn: table dimensions %dx%d", states, actions))
	}
	if backing == nil {
		return make([]V, states*actions)
	}
	if len(backing) != states*actions {
		panic(fmt.Sprintf("qlearn: backing holds %d values, want %d", len(backing), states*actions))
	}
	return backing
}

// States implements Table.
func (t *FloatTable) States() int { return t.states }

// Actions implements Table.
func (t *FloatTable) Actions() int { return t.actions }

func (t *FloatTable) idx(s, a int) int { return s*t.actions + a }

// Q implements Table.
func (t *FloatTable) Q(s, a int) float64 { return t.q[t.idx(s, a)] }

// SetQ implements Table.
func (t *FloatTable) SetQ(s, a int, v float64) { t.q[t.idx(s, a)] = v }

// MaxQ implements Table.
func (t *FloatTable) MaxQ(s int) float64 {
	row := t.q[s*t.actions : (s+1)*t.actions]
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// ArgMax implements Table.
func (t *FloatTable) ArgMax(s int) int {
	row := t.q[s*t.actions : (s+1)*t.actions]
	best := 0
	for a := 1; a < len(row); a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

// Update implements Table with Eq. 5:
// Q(s,a) ← max(Q(s,a) − ξ, (1−α)·Q(s,a) + α·(r + γ·max Q(next))).
func (t *FloatTable) Update(s, a int, r float64, next int) (float64, bool) {
	old := t.Q(s, a)
	target := r + t.p.Gamma*t.MaxQ(next)
	newV := (1-t.p.Alpha)*old + t.p.Alpha*target
	stored := old - t.p.Xi
	if newV > stored {
		stored = newV
	}
	t.SetQ(s, a, stored)
	return stored, stored > old
}

// Reset implements Table.
func (t *FloatTable) Reset() {
	for i := range t.q {
		t.q[i] = t.p.InitQ
	}
}

// MemoryBytes implements Table: 8 bytes per entry.
func (t *FloatTable) MemoryBytes() int { return len(t.q) * 8 }
