package qlearn

import "fmt"

// MaxActions is the most actions a Learner supports: π stores one action
// index per state in a byte, as an embedded node would.
const MaxActions = 256

// Learner couples a value Table with the separate policy table π of Eq. 3.
// Lauer/Riedmiller show that storing only Q-values lets cooperating agents
// disagree when several action combinations are optimal (Tbl. 2); the policy
// table fixes this by switching actions only when a strictly greater Q-value
// is found, so all agents keep the policy that reached the optimum first.
//
// The zero value is not usable; build one with NewLearner, or embed it by
// value and call Init.
type Learner struct {
	table Table
	// policy is π, one action index per state. A byte per entry is the
	// paper's §3.2 footprint and lets Init reject tables wider than that.
	policy []uint8
	// reevalOnDecay also re-evaluates the policy when an update lowered a
	// value (e.g. through the ξ penalty). The paper's Algorithm 1 gates the
	// policy update on improvement only; this switch exists for the ablation
	// benchmarks.
	reevalOnDecay bool
	// updates counts Observe calls, for instrumentation.
	updates uint64
}

// NewLearner returns a learner over table whose policy is initialized to
// defaultAction in every state (QMA initializes π(mt) to QBackoff,
// Algorithm 1).
func NewLearner(table Table, defaultAction int) *Learner {
	l := new(Learner)
	l.Init(table, defaultAction, make([]uint8, table.States()))
	return l
}

// Init initialises l in place over table, placing π in policy, which must
// hold exactly table.States() entries, and setting every entry to
// defaultAction. It panics when the table has more than 256 actions, the
// most a byte-wide policy entry can name. Engines embed a Learner by value
// and carve policy from their run's scratch arena.
func (l *Learner) Init(table Table, defaultAction int, policy []uint8) {
	if n := table.Actions(); n > MaxActions {
		panic(fmt.Sprintf("qlearn: %d actions exceed the byte-wide policy's %d", n, MaxActions))
	}
	if len(policy) != table.States() {
		panic(fmt.Sprintf("qlearn: policy backing holds %d entries, want %d", len(policy), table.States()))
	}
	*l = Learner{table: table, policy: policy}
	l.fillPolicy(defaultAction)
}

// fillPolicy sets every policy entry to defaultAction after checking that
// the table has such an action.
func (l *Learner) fillPolicy(defaultAction int) {
	if defaultAction < 0 || defaultAction >= l.table.Actions() {
		panic(fmt.Sprintf("qlearn: default action %d out of range [0,%d)", defaultAction, l.table.Actions()))
	}
	for s := range l.policy {
		l.policy[s] = uint8(defaultAction)
	}
}

// Table returns the underlying value storage.
func (l *Learner) Table() Table { return l.table }

// Policy reports π(s).
func (l *Learner) Policy(s int) int { return int(l.policy[s]) }

// SetReevalOnDecay toggles the ablation behaviour described on Learner.
func (l *Learner) SetReevalOnDecay(v bool) { l.reevalOnDecay = v }

// Updates reports how many observations have been applied.
func (l *Learner) Updates() uint64 { return l.updates }

// Observe applies one experience tuple: action a was taken in state s, the
// environment paid reward r and the agent arrived in state next. The value
// table is updated per its rule and the policy per Eq. 3: π(s) switches only
// to an action whose stored Q-value is strictly greater than the current
// policy's. Ties keep the incumbent, which is what lets multiple agents
// settle on the same optimum. It returns the stored Q-value for (s, a).
func (l *Learner) Observe(s, a int, r float64, next int) float64 {
	l.updates++
	stored, improved := l.table.Update(s, a, r, next)
	if improved || l.reevalOnDecay {
		l.reevaluate(s)
	}
	return stored
}

// reevaluate applies Eq. 3 to state s: π(s) moves to the best action whose
// value strictly exceeds the incumbent's, the smallest index among equals.
// That is ArgMax(s) whenever MaxQ(s) beats the incumbent, so the common case
// costs two table reads. The exception is a NaN in the row's first entry,
// which only a FloatTable can hold (RuleStandard stores NaN for a NaN
// reward): MaxQ and ArgMax then stop at that entry, so the row is scanned
// explicitly, skipping NaNs as the strict comparison does everywhere else.
func (l *Learner) reevaluate(s int) {
	inc := int(l.policy[s])
	incQ := l.table.Q(s, inc)
	switch maxQ := l.table.MaxQ(s); {
	case maxQ > incQ:
		l.policy[s] = uint8(l.table.ArgMax(s))
	case maxQ != maxQ:
		best, bestQ := inc, incQ
		for cand, n := 0, l.table.Actions(); cand < n; cand++ {
			if q := l.table.Q(s, cand); q > bestQ {
				best, bestQ = cand, q
			}
		}
		l.policy[s] = uint8(best)
	}
}

// CumulativePolicyQ reports Σ_s Q(s, π(s)) — the stability metric plotted in
// Fig. 10 and Fig. 12 ("cumulative Q-values per frame ... the sum of
// Q-values for all subslots following the best policy at that time").
func (l *Learner) CumulativePolicyQ() float64 {
	var sum float64
	for s, a := range l.policy {
		sum += l.table.Q(s, int(a))
	}
	return sum
}

// Reset restores the value table and sets every policy entry to
// defaultAction.
func (l *Learner) Reset(defaultAction int) {
	l.fillPolicy(defaultAction)
	l.table.Reset()
	l.updates = 0
}

// PolicySnapshot returns a copy of π, for slot-utilization reports
// (Fig. 13–15).
func (l *Learner) PolicySnapshot() []int {
	out := make([]int, len(l.policy))
	for s, a := range l.policy {
		out[s] = int(a)
	}
	return out
}
