package qma

import (
	"fmt"

	"qma/internal/core"
	"qma/internal/qlearn"
)

// Learner is the paper's cooperative multi-agent Q-learning core (§3),
// exposed for embedding in systems other than the bundled simulator: the
// optimistic Eq. 5 update with penalty ξ, the separate policy table of
// Eq. 3, and a pluggable value representation. One Learner is one agent; the
// cooperative behaviour emerges from every agent applying the same rule to
// local observations.
//
// A Learner is not safe for concurrent use.
type Learner struct {
	inner *qlearn.Learner
	kind  TableKind
}

// NewLearner builds an agent over a states × actions table. defaultAction
// seeds the policy in every state (QMA uses its backoff action). The zero
// LearnParams value selects the paper's hyperparameters. TableFixed and
// TableQuant use integer-only arithmetic with γ quantized to 230/256 and
// accept only the paper's hyperparameters (zero or their exact values). At
// most 256 actions are supported: the policy stores one byte per state.
func NewLearner(states, actions int, p LearnParams, kind TableKind, defaultAction int) (*Learner, error) {
	if states <= 0 || actions <= 0 {
		return nil, fmt.Errorf("qma: learner dimensions %dx%d must be positive", states, actions)
	}
	if actions > qlearn.MaxActions {
		return nil, fmt.Errorf("qma: %d actions exceed the learner's %d (π stores one byte per state)", actions, qlearn.MaxActions)
	}
	if defaultAction < 0 || defaultAction >= actions {
		return nil, fmt.Errorf("qma: default action %d out of range [0,%d)", defaultAction, actions)
	}
	k, err := kind.internal()
	if err != nil {
		return nil, err
	}
	learn := p.internal()
	if err := (core.Options{Learn: learn, Table: k}).Validate(); err != nil {
		return nil, fmt.Errorf("qma: %w", err)
	}
	table := k.NewTable(states, actions, learn, nil)
	return &Learner{inner: qlearn.NewLearner(table, defaultAction), kind: kind}, nil
}

// Observe applies one experience tuple — action a taken in state s earned
// reward r and led to state next — using the paper's Eq. 5 update and Eq. 3
// policy rule. It returns the stored Q-value for (s, a).
func (l *Learner) Observe(s, a int, r float64, next int) float64 {
	return l.inner.Observe(s, a, r, next)
}

// Policy reports π(s), the agent's current action for state s.
func (l *Learner) Policy(s int) int { return l.inner.Policy(s) }

// Q reports the stored value for (s, a).
func (l *Learner) Q(s, a int) float64 { return l.inner.Table().Q(s, a) }

// CumulativePolicyQ reports Σ_s Q(s, π(s)), the paper's policy-stability
// metric (Fig. 10/12).
func (l *Learner) CumulativePolicyQ() float64 { return l.inner.CumulativePolicyQ() }

// States and Actions report the table dimensions.
func (l *Learner) States() int  { return l.inner.Table().States() }
func (l *Learner) Actions() int { return l.inner.Table().Actions() }

// Reset restores the initial table and policy.
func (l *Learner) Reset(defaultAction int) { l.inner.Reset(defaultAction) }

// ExplorationRate evaluates the paper's parameter-based exploration table
// (Fig. 4) for a local queue level and the mean of recently overheard
// neighbour queue levels.
func ExplorationRate(queueLevel int, avgNeighborQueue float64) float64 {
	return qlearn.DefaultExplorer().Rate(qlearn.ExploreContext{
		QueueLevel:       queueLevel,
		AvgNeighborQueue: avgNeighborQueue,
	})
}

// ExpectedHandshakeMessages reports the expected number of messages until a
// DSME 3-way GTS handshake completes, for a per-message success probability
// p (paper Appendix A.1, Fig. 26).
func ExpectedHandshakeMessages(p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("qma: p=%v out of [0,1]", p)
	}
	return markovExpected(p), nil
}
