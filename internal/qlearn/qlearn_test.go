package qlearn

import (
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Gamma: 0.9},
		{Alpha: 1.5, Gamma: 0.9},
		{Alpha: 0.5, Gamma: -0.1},
		{Alpha: 0.5, Gamma: 1.1},
		{Alpha: 0.5, Gamma: 0.9, Xi: -1},
		{Alpha: 0.5, Gamma: 0.9, Rule: RuleStandard + 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestNewFloatTablePanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {3, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFloatTable(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewFloatTable(dims[0], dims[1], DefaultParams())
		}()
	}
}

func TestStandardRuleIsEq1(t *testing.T) {
	p := Params{Alpha: 0.5, Gamma: 0.9, InitQ: 0, Rule: RuleStandard}
	tb := NewFloatTable(2, 2, p)
	tb.SetQ(1, 0, 10) // max of next state
	stored, improved := tb.Update(0, 0, 4, 1)
	// (1-0.5)*0 + 0.5*(4 + 0.9*10) = 6.5
	if math.Abs(stored-6.5) > 1e-12 || !improved {
		t.Fatalf("Eq.1 update = (%v, %v), want (6.5, true)", stored, improved)
	}
	// A lower target moves the value down under Eq. 1.
	stored, improved = tb.Update(0, 0, -3, 1)
	// 0.5*6.5 + 0.5*(-3+9) = 6.25
	if math.Abs(stored-6.25) > 1e-12 || improved {
		t.Fatalf("Eq.1 second update = (%v, %v), want (6.25, false)", stored, improved)
	}
}

func TestOptimisticRuleIsEq2(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 1, InitQ: -10, Rule: RuleOptimistic}
	tb := NewFloatTable(2, 2, p)
	stored, improved := tb.Update(0, 0, 4, 1)
	if stored != -6 || !improved { // 4 + max(-10,-10) = -6 > -10
		t.Fatalf("Eq.2 update = (%v, %v), want (-6, true)", stored, improved)
	}
	// Eq. 2 never decreases: a punishment leaves the value untouched.
	stored, improved = tb.Update(0, 0, -3, 1)
	if stored != -6 || improved {
		t.Fatalf("Eq.2 after punishment = (%v, %v), want (-6, false)", stored, improved)
	}
}

func TestQMARuleAppliesPenalty(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 1, Xi: 2, InitQ: -10, Rule: RuleQMA}
	tb := NewFloatTable(2, 2, p)
	// Collision: newV = -3 + (-10) = -13 < -10, so the value decays by ξ
	// instead (the Fig. 5 "-12 not -13" case).
	stored, improved := tb.Update(0, 0, -3, 1)
	if stored != -12 || improved {
		t.Fatalf("penalty update = (%v, %v), want (-12, false)", stored, improved)
	}
	// A success resets the value to the newly computed one.
	stored, improved = tb.Update(0, 0, 4, 1)
	if stored != -6 || !improved {
		t.Fatalf("recovery update = (%v, %v), want (-6, true)", stored, improved)
	}
}

// TestStochasticEnvironmentEscape reproduces the §3.1.1 / Tbl. 3 argument:
// under the pure optimistic rule an agent that once saw a lucky success
// keeps Q high despite repeated collisions, while the ξ-penalty rule decays
// the value until another action wins.
func TestStochasticEnvironmentEscape(t *testing.T) {
	mk := func(rule UpdateRule) *Learner {
		p := Params{Alpha: 0.5, Gamma: 0, Xi: 2, InitQ: -10, Rule: rule}
		return NewLearner(NewFloatTable(1, 2, p), 0)
	}
	// Action 1 ("acquire") succeeds once, then collides forever. Action 0
	// ("wait") always pays 0.
	run := func(l *Learner) int {
		l.Observe(0, 1, 4, 0) // lucky acquisition
		l.Observe(0, 0, 0, 0)
		for i := 0; i < 20; i++ {
			l.Observe(0, 1, -3, 0) // collisions
			l.Observe(0, 0, 0, 0)  // waiting stays at 0 reward
		}
		return l.Policy(0)
	}
	if got := run(mk(RuleOptimistic)); got != 1 {
		t.Errorf("optimistic rule: policy = %d, want 1 (stuck on acquire, the Tbl. 3 failure)", got)
	}
	if got := run(mk(RuleQMA)); got != 0 {
		t.Errorf("QMA rule: policy = %d, want 0 (escaped via ξ penalty)", got)
	}
}

// TestDuplicateOptimaPolicyStability reproduces the Tbl. 2 argument: when
// two actions reach the same optimal value, the policy must stay with the
// action that reached it first.
func TestDuplicateOptimaPolicyStability(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 0, Xi: 0, InitQ: -10, Rule: RuleQMA}
	l := NewLearner(NewFloatTable(1, 2, p), 0)
	l.Observe(0, 0, 10, 0)
	if l.Policy(0) != 0 {
		t.Fatalf("policy = %d after first optimum, want 0", l.Policy(0))
	}
	// The second action reaches the same value: NOT strictly greater, so the
	// policy must not switch.
	l.Observe(0, 1, 10, 0)
	if l.Policy(0) != 0 {
		t.Fatalf("policy switched to %d on a duplicate optimum", l.Policy(0))
	}
	// A strictly greater value does switch.
	l.Observe(0, 1, 11, 0)
	if l.Policy(0) != 1 {
		t.Fatalf("policy = %d after strict improvement, want 1", l.Policy(0))
	}
}

func TestLearnerReevalOnDecay(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 0, Xi: 2, InitQ: -10, Rule: RuleQMA}
	l := NewLearner(NewFloatTable(1, 2, p), 0)
	l.Observe(0, 1, 4, 0) // π switches to 1 (Q=4)
	l.Observe(0, 0, 0, 0) // Q(0)=0
	if l.Policy(0) != 1 {
		t.Fatalf("setup: policy = %d, want 1", l.Policy(0))
	}
	// Repeated collisions decay Q(1) below Q(0)=0, but the gated rule keeps
	// the policy until some update strictly improves a value.
	for i := 0; i < 5; i++ {
		l.Observe(0, 1, -3, 0)
	}
	if q := l.Table().Q(0, 1); q >= 0 {
		t.Fatalf("Q(0,1) = %v, want < 0 after decay", q)
	}
	if l.Policy(0) != 1 {
		t.Fatalf("gated policy switched on decay alone (got %d)", l.Policy(0))
	}
	// With the ablation switch the policy follows the argmax on decay too.
	l.Reset(0)
	l.SetReevalOnDecay(true)
	l.Observe(0, 1, 4, 0)
	l.Observe(0, 0, 0, 0)
	for i := 0; i < 5; i++ {
		l.Observe(0, 1, -3, 0)
	}
	if l.Policy(0) != 0 {
		t.Fatalf("reeval-on-decay policy = %d, want 0", l.Policy(0))
	}
}

func TestCumulativePolicyQ(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 0, Xi: 0, InitQ: -10, Rule: RuleQMA}
	l := NewLearner(NewFloatTable(3, 2, p), 0)
	if got := l.CumulativePolicyQ(); got != -30 {
		t.Fatalf("initial cumulative = %v, want -30", got)
	}
	l.Observe(1, 1, 5, 2) // π(1)=1, Q=5
	if got := l.CumulativePolicyQ(); got != -10+5-10 {
		t.Fatalf("cumulative = %v, want -15", got)
	}
}

func TestLearnerResetAndSnapshot(t *testing.T) {
	l := NewLearner(NewFloatTable(2, 3, DefaultParams()), 0)
	l.Observe(0, 2, 4, 1)
	if l.Updates() != 1 {
		t.Fatalf("updates = %d, want 1", l.Updates())
	}
	snap := l.PolicySnapshot()
	snap[0] = 99 // must be a copy
	if l.Policy(0) == 99 {
		t.Fatal("PolicySnapshot aliases internal state")
	}
	l.Reset(1)
	if l.Updates() != 0 || l.Policy(0) != 1 || l.Table().Q(0, 2) != -10 {
		t.Fatalf("Reset did not restore state: updates=%d π(0)=%d Q=%v",
			l.Updates(), l.Policy(0), l.Table().Q(0, 2))
	}
}

// TestLearnerInitRejectsWideTables pins the byte-wide policy's limit: a
// table with 256 actions fits, one with 257 panics naming both counts.
func TestLearnerInitRejectsWideTables(t *testing.T) {
	var l Learner
	l.Init(NewFloatTable(2, MaxActions, DefaultParams()), MaxActions-1, make([]uint8, 2))
	if got := l.Policy(1); got != MaxActions-1 {
		t.Fatalf("π(1) = %d, want %d", got, MaxActions-1)
	}
	defer func() {
		const want = "qlearn: 257 actions exceed the byte-wide policy's 256"
		if r := recover(); r != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	l.Init(NewFloatTable(2, MaxActions+1, DefaultParams()), 0, make([]uint8, 2))
}

// Action indices for the Fig. 5 replay, ordered as in the figure's rows.
const (
	figB = 0
	figC = 1
	figS = 2
)

type figStep struct {
	subslot int
	action  int
	reward  float64
}

// TestFigure5Replay drives three learners with the exact action/reward
// sequences of the paper's worked example (Fig. 5: 3 nodes, 4 subslots,
// α=1, γ=1, ξ=2, Q₀=−10) and checks every Q-table snapshot the figure
// prints after each frame.
func TestFigure5Replay(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 1, Xi: 2, InitQ: -10, Rule: RuleQMA}

	type nodeCase struct {
		name   string
		frames [][]figStep
		// want[frame][action][subslot], matching the figure's layout.
		want [3][3][4]float64
	}
	cases := []nodeCase{
		{
			name: "n1",
			frames: [][]figStep{
				{{0, figS, 4}, {1, figB, 0}, {2, figS, -3}, {3, figB, 2}},
				{{0, figS, 4}, {1, figB, 2}, {2, figB, 0}, {3, figB, 2}},
				{{0, figS, 4}, {1, figB, 0}, {2, figB, 0}, {3, figB, 2}},
			},
			want: [3][3][4]float64{
				{ // after frame 1
					{-10, -10, -10, -4}, // B
					{-10, -10, -10, -10},
					{-6, -10, -12, -10}, // S
				},
				{ // after frame 2
					{-10, -8, -4, -4},
					{-10, -10, -10, -10},
					{-6, -10, -12, -10},
				},
				{ // after frame 3
					{-10, -4, -4, -2},
					{-10, -10, -10, -10},
					{-4, -10, -12, -10},
				},
			},
		},
		{
			name: "n2",
			frames: [][]figStep{
				{{0, figC, 1}, {1, figB, 0}, {2, figS, -3}, {3, figS, 4}},
				{{0, figC, 1}, {1, figB, 2}, {2, figB, 0}, {3, figS, 4}},
				{{0, figC, 1}, {1, figC, -2}, {2, figB, 0}, {3, figS, 4}},
			},
			want: [3][3][4]float64{
				{
					{-10, -10, -10, -10},
					{-9, -10, -10, -10},
					{-10, -10, -12, -5},
				},
				{
					{-10, -8, -5, -10},
					{-9, -10, -10, -10},
					{-10, -10, -12, -5},
				},
				{
					{-10, -8, -5, -10},
					{-7, -7, -10, -10},
					{-10, -10, -12, -3},
				},
			},
		},
		{
			name: "n3", // in cautious startup during frame 1: QBackoff only
			frames: [][]figStep{
				{{0, figB, 2}, {1, figB, 0}, {2, figB, 0}, {3, figB, 2}},
				{{0, figB, 2}, {1, figC, 3}, {2, figB, 0}, {3, figB, 2}},
				{{0, figB, 2}, {1, figC, -2}, {2, figB, 0}, {3, figB, 2}},
			},
			want: [3][3][4]float64{
				{
					{-8, -10, -10, -6},
					{-10, -10, -10, -10},
					{-10, -10, -10, -10},
				},
				{
					{-8, -10, -6, -6},
					{-10, -7, -10, -10},
					{-10, -10, -10, -10},
				},
				{
					{-5, -10, -6, -3},
					{-10, -8, -10, -10},
					{-10, -10, -10, -10},
				},
			},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := NewFloatTable(4, 3, p)
			l := NewLearner(tb, figB)
			for fi, steps := range c.frames {
				for _, st := range steps {
					next := (st.subslot + 1) % 4
					l.Observe(st.subslot, st.action, st.reward, next)
				}
				for a := 0; a < 3; a++ {
					for s := 0; s < 4; s++ {
						if got := tb.Q(s, a); got != c.want[fi][a][s] {
							t.Errorf("frame %d: Q(subslot=%d, action=%d) = %v, want %v",
								fi+1, s, a, got, c.want[fi][a][s])
						}
					}
				}
			}
		})
	}
}

// TestFigure5PolicyEvolution checks the policy consequences the example
// narrates: after frame 1, n1 and n2 switch to QBackoff in the collided
// subslot 2 (they never improved there) but adopt the successful
// transmission subslots.
func TestFigure5PolicyEvolution(t *testing.T) {
	p := Params{Alpha: 1, Gamma: 1, Xi: 2, InitQ: -10, Rule: RuleQMA}
	tb := NewFloatTable(4, 3, p)
	l := NewLearner(tb, figB)
	// n1 frame 1.
	for _, st := range []figStep{{0, figS, 4}, {1, figB, 0}, {2, figS, -3}, {3, figB, 2}} {
		l.Observe(st.subslot, st.action, st.reward, (st.subslot+1)%4)
	}
	if got := l.Policy(0); got != figS {
		t.Errorf("π(0) = %d, want QSend after successful transmission", got)
	}
	// Collided subslot: QSend never improved, policy remains QBackoff —
	// "Thus, n1 and n2 execute QBackoff in the next frame."
	if got := l.Policy(2); got != figB {
		t.Errorf("π(2) = %d, want QBackoff after collision", got)
	}
}
