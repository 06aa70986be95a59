package qlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanLearner is the reference Eq. 3 policy update: after every improving
// observation (or every observation with reevalOnDecay) it walks the whole
// row, starting from the incumbent, and switches only to a strictly greater
// value. Learner.Observe must produce the same policy on every table kind.
type scanLearner struct {
	table         Table
	policy        []int
	reevalOnDecay bool
}

func (l *scanLearner) observe(s, a int, r float64, next int) float64 {
	stored, improved := l.table.Update(s, a, r, next)
	if improved || l.reevalOnDecay {
		best := l.policy[s]
		bestQ := l.table.Q(s, best)
		for cand := 0; cand < l.table.Actions(); cand++ {
			if q := l.table.Q(s, cand); q > bestQ {
				best, bestQ = cand, q
			}
		}
		l.policy[s] = best
	}
	return stored
}

// eq1Table is plain Watkins Q-learning (Eq. 1) over a FloatTable's
// storage, a table kind only the tests build: unlike Eq. 5 it stores NaN
// for a NaN reward, so the policy oracle also meets rows whose first entry
// turned NaN through Update rather than SetQ.
type eq1Table struct{ *FloatTable }

func (t eq1Table) Update(s, a int, r float64, next int) (float64, bool) {
	old := t.Q(s, a)
	stored := (1-t.p.Alpha)*old + t.p.Alpha*(r+t.p.Gamma*t.MaxQ(next))
	t.SetQ(s, a, stored)
	return stored, stored > old
}

// reevalTables returns twin-constructor factories for every table kind:
// the float table at the paper's parameters ("qma") and at α=1, ξ=0, where
// Eq. 5 is the optimistic Eq. 2, the test-only Eq. 1 table ("standard"),
// each also at γ = 0 so 0·(−Inf) targets appear, and both integer widths.
func reevalTables() map[string]func(states, actions int) Table {
	out := map[string]func(states, actions int) Table{}
	optimistic := Params{Alpha: 1, Gamma: 0.9, Xi: 0, InitQ: -10}
	for name, base := range map[string]Params{"qma": DefaultParams(), "optimistic": optimistic, "standard": DefaultParams()} {
		for _, gamma := range []float64{0.9, 0} {
			p := base
			p.Gamma = gamma
			mk := func(states, actions int) Table { return NewFloatTable(states, actions, p) }
			if name == "standard" {
				mk = func(states, actions int) Table { return eq1Table{NewFloatTable(states, actions, p)} }
			}
			out[fmt.Sprintf("float/%s/gamma=%v", name, gamma)] = mk
		}
	}
	for _, c := range intCases {
		for _, xi := range []int32{c.def.Xi, 0} {
			p := c.def
			p.Xi = xi
			out[fmt.Sprintf("%s/xi=%d", c.name, xi)] = func(states, actions int) Table {
				return c.mk(states, actions, p)
			}
		}
	}
	return out
}

// sameValue compares two stored values bit for bit, so NaN equals NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestObservePolicyMatchesScan drives Learner.Observe and the scanLearner
// oracle through identical random (s, a, r, next) streams and compares the
// policy and every value after each step. Rewards mix small integers (to
// force ties), arbitrary finite values, ±Inf and NaN; a few steps overwrite
// a value with SetQ, NaN included, so rows whose first entry is NaN occur.
func TestObservePolicyMatchesScan(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for name, mk := range reevalTables() {
		for _, reeval := range []bool{false, true} {
			for _, actions := range []int{3, 5} {
				t.Run(fmt.Sprintf("%s/reeval=%v/actions=%d", name, reeval, actions), func(t *testing.T) {
					const states, steps = 4, 4000
					rng := rand.New(rand.NewSource(int64(actions)*31 + 7))
					got := NewLearner(mk(states, actions), 0)
					got.SetReevalOnDecay(reeval)
					want := &scanLearner{table: mk(states, actions), policy: make([]int, states), reevalOnDecay: reeval}
					for step := 0; step < steps; step++ {
						s, a, next := rng.Intn(states), rng.Intn(actions), rng.Intn(states)
						var r float64
						switch k := rng.Intn(20); {
						case k == 0:
							r = specials[rng.Intn(len(specials))]
						case k < 10:
							r = float64(rng.Intn(7) - 3)
						default:
							r = rng.Float64()*40 - 20
						}
						if rng.Intn(50) == 0 {
							v := float64(rng.Intn(9) - 4)
							if rng.Intn(3) == 0 {
								v = specials[rng.Intn(len(specials))]
							}
							got.Table().SetQ(s, a, v)
							want.table.SetQ(s, a, v)
						}
						gs, ws := got.Observe(s, a, r, next), want.observe(s, a, r, next)
						if !sameValue(gs, ws) {
							t.Fatalf("step %d: Observe(%d,%d,%v,%d) stored %v, oracle %v", step, s, a, r, next, gs, ws)
						}
						for st := 0; st < states; st++ {
							if got.Policy(st) != want.policy[st] {
								t.Fatalf("step %d: π(%d) = %d, oracle %d (row %v)", step, st, got.Policy(st), want.policy[st], row(got.Table(), st))
							}
							for ac := 0; ac < actions; ac++ {
								if !sameValue(got.Table().Q(st, ac), want.table.Q(st, ac)) {
									t.Fatalf("step %d: Q(%d,%d) = %v, oracle %v", step, st, ac, got.Table().Q(st, ac), want.table.Q(st, ac))
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestObservePolicyNaNFirstEntry pins the case the two-read fast path cannot
// see: a NaN in action 0's value makes MaxQ report NaN and ArgMax report 0,
// yet Eq. 3 must still move π to the best non-NaN action above the
// incumbent.
func TestObservePolicyNaNFirstEntry(t *testing.T) {
	l := NewLearner(NewFloatTable(2, 3, DefaultParams()), 2)
	l.Table().SetQ(0, 0, math.NaN())
	l.Table().SetQ(0, 1, 5)
	l.Observe(0, 2, 0, 1) // raises the incumbent to -9.5 and re-evaluates
	if got := l.Policy(0); got != 1 {
		t.Errorf("π(0) = %d with row %v, want 1 (NaN skipped, 5 > incumbent)", got, row(l.Table(), 0))
	}
}

func row(t Table, s int) []float64 {
	out := make([]float64, t.Actions())
	for a := range out {
		out[a] = t.Q(s, a)
	}
	return out
}
