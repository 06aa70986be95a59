package qlearn

import "fmt"

// Learner couples a value Table with the separate policy table π of Eq. 3.
// Lauer/Riedmiller show that storing only Q-values lets cooperating agents
// disagree when several action combinations are optimal (Tbl. 2); the policy
// table fixes this by switching actions only when a strictly greater Q-value
// is found, so all agents keep the policy that reached the optimum first.
type Learner struct {
	table  Table
	policy []int
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
	return NewLearnerOn(table, defaultAction, nil)
}

// NewLearnerOn is NewLearner placing the policy table in backing, which must
// hold exactly table.States() elements. nil backing allocates privately.
func NewLearnerOn(table Table, defaultAction int, backing []int) *Learner {
	if defaultAction < 0 || defaultAction >= table.Actions() {
		panic(fmt.Sprintf("qlearn: default action %d out of range [0,%d)", defaultAction, table.Actions()))
	}
	if backing == nil {
		backing = make([]int, table.States())
	} else if len(backing) != table.States() {
		panic(fmt.Sprintf("qlearn: policy backing holds %d entries, want %d", len(backing), table.States()))
	}
	l := &Learner{table: table, policy: backing}
	for s := range l.policy {
		l.policy[s] = defaultAction
	}
	return l
}

// Table returns the underlying value storage.
func (l *Learner) Table() Table { return l.table }

// Policy reports π(s).
func (l *Learner) Policy(s int) int { return l.policy[s] }

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
	inc := l.policy[s]
	incQ := l.table.Q(s, inc)
	switch maxQ := l.table.MaxQ(s); {
	case maxQ > incQ:
		l.policy[s] = l.table.ArgMax(s)
	case maxQ != maxQ:
		best, bestQ := inc, incQ
		for cand, n := 0, l.table.Actions(); cand < n; cand++ {
			if q := l.table.Q(s, cand); q > bestQ {
				best, bestQ = cand, q
			}
		}
		l.policy[s] = best
	}
}

// CumulativePolicyQ reports Σ_s Q(s, π(s)) — the stability metric plotted in
// Fig. 10 and Fig. 12 ("cumulative Q-values per frame ... the sum of
// Q-values for all subslots following the best policy at that time").
func (l *Learner) CumulativePolicyQ() float64 {
	var sum float64
	for s, a := range l.policy {
		sum += l.table.Q(s, a)
	}
	return sum
}

// Reset restores the value table and sets every policy entry to
// defaultAction.
func (l *Learner) Reset(defaultAction int) {
	if defaultAction < 0 || defaultAction >= l.table.Actions() {
		panic(fmt.Sprintf("qlearn: default action %d out of range [0,%d)", defaultAction, l.table.Actions()))
	}
	l.table.Reset()
	for s := range l.policy {
		l.policy[s] = defaultAction
	}
	l.updates = 0
}

// PolicySnapshot returns a copy of π, for slot-utilization reports
// (Fig. 13–15).
func (l *Learner) PolicySnapshot() []int {
	return append([]int(nil), l.policy...)
}
