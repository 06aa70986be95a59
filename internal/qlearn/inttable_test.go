package qlearn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rawParams mirrors IntParams without the width, so one test body can build
// either width: IntParams[T](p) converts it.
type rawParams struct {
	AlphaShift uint
	GammaNum   int32
	Xi         int32
	InitQ      int32
}

// intTab is the width-independent view of an IntTable the tests use.
type intTab interface {
	Table
	rawAt(s, a int) int64
}

func (t *IntTable[T]) rawAt(s, a int) int64 { return int64(t.Raw(s, a)) }

// intCase is one integer storage width under test. The scale, rails and
// AlphaShift bound are written out here rather than read from the
// implementation.
type intCase struct {
	name     string
	scale    float64
	min, max int64
	maxShift uint
	bytes    int
	def      rawParams
	validate func(rawParams) error
	mk       func(states, actions int, p rawParams) intTab
}

func newIntCase[T IntValue](c intCase, def IntParams[T]) intCase {
	c.def = rawParams(def)
	c.validate = func(p rawParams) error { return IntParams[T](p).Validate() }
	c.mk = func(states, actions int, p rawParams) intTab {
		return NewIntTable(states, actions, IntParams[T](p), nil)
	}
	return c
}

// intCases are the two widths: Q8.8 (§3.2) and 8-bit Q5.2 (§7).
var intCases = []intCase{
	newIntCase(intCase{name: "fixed", scale: 256, min: -1 << 15, max: 1<<15 - 1, maxShift: 8, bytes: 2}, DefaultFixedParams()),
	newIntCase(intCase{name: "quant", scale: 4, min: -1 << 7, max: 1<<7 - 1, maxShift: 7, bytes: 1}, DefaultQuantParams()),
}

// TestIntParamsValidate checks each width's own bounds: a Q8.8 shift of 8
// or an InitQ of −1000 is valid, but not at 8 bits.
func TestIntParamsValidate(t *testing.T) {
	bad := map[string][]rawParams{
		"fixed": {
			{AlphaShift: 9, GammaNum: 230},
			{AlphaShift: 1, GammaNum: -1},
			{AlphaShift: 1, GammaNum: 257},
			{AlphaShift: 1, GammaNum: 230, Xi: -1},
			{AlphaShift: 1, GammaNum: 230, InitQ: 1 << 20},
		},
		"quant": {
			{AlphaShift: 8, GammaNum: 230},
			{AlphaShift: 1, GammaNum: 300},
			{AlphaShift: 1, GammaNum: 230, Xi: -2},
			{AlphaShift: 1, GammaNum: 230, InitQ: -1000},
		},
	}
	good := map[string][]rawParams{
		"fixed": {{AlphaShift: 8, GammaNum: 256}, {AlphaShift: 1, GammaNum: 0, InitQ: -1000}},
		"quant": {{AlphaShift: 7, GammaNum: 256}, {AlphaShift: 1, GammaNum: 0, InitQ: -128}},
	}
	for _, c := range intCases {
		t.Run(c.name, func(t *testing.T) {
			for i, p := range append([]rawParams{c.def}, good[c.name]...) {
				if err := c.validate(p); err != nil {
					t.Errorf("valid case %d: Validate(%+v) = %v", i, p, err)
				}
			}
			for i, p := range bad[c.name] {
				if err := c.validate(p); err == nil {
					t.Errorf("case %d: Validate accepted %+v", i, p)
				}
			}
		})
	}
}

// TestFixedReplaysFigure5 replays the paper's worked example on the integer
// table: with α=1 (shift 0), γ=1 (256/256) and ξ=2 every intermediate value
// is an exact integer, so fixed point must match the float table bit for
// bit.
func TestFixedReplaysFigure5(t *testing.T) {
	fp := IntParams[int16]{AlphaShift: 0, GammaNum: 256, Xi: 2 * FixedOne, InitQ: -10 * FixedOne}
	ft := NewIntTable(4, 3, fp, nil)
	lf := NewLearner(ft, figB)

	p := Params{Alpha: 1, Gamma: 1, Xi: 2, InitQ: -10}
	rt := NewFloatTable(4, 3, p)
	lr := NewLearner(rt, figB)

	steps := []figStep{
		{0, figS, 4}, {1, figB, 0}, {2, figS, -3}, {3, figB, 2},
		{0, figS, 4}, {1, figB, 2}, {2, figB, 0}, {3, figB, 2},
		{0, figS, 4}, {1, figB, 0}, {2, figB, 0}, {3, figB, 2},
	}
	for _, st := range steps {
		next := (st.subslot + 1) % 4
		lf.Observe(st.subslot, st.action, st.reward, next)
		lr.Observe(st.subslot, st.action, st.reward, next)
	}
	for s := 0; s < 4; s++ {
		for a := 0; a < 3; a++ {
			if got, want := ft.Q(s, a), rt.Q(s, a); got != want {
				t.Errorf("fixed Q(%d,%d) = %v, want %v", s, a, got, want)
			}
		}
		if lf.Policy(s) != lr.Policy(s) {
			t.Errorf("fixed π(%d) = %d, float π(%d) = %d", s, lf.Policy(s), s, lr.Policy(s))
		}
	}
}

// TestFixedTracksFloat drives identical random update sequences through the
// fixed-point table and a float table configured with the same effective
// γ = 230/256 and asserts bounded divergence (the quantization error
// contracts geometrically under α=0.5, γ≈0.9).
func TestFixedTracksFloat(t *testing.T) {
	p := Params{Alpha: 0.5, Gamma: 230.0 / 256.0, Xi: 2, InitQ: -10}
	prop := func(seed int64) bool {
		ft := NewFixedTableOn(6, 3, DefaultFixedParams(), nil)
		rt := NewFloatTable(6, 3, p)
		rewards := []float64{-3, -2, 0, 1, 2, 3, 4}
		x := uint64(seed)
		nextU := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int((x >> 33) % uint64(n))
		}
		for i := 0; i < 300; i++ {
			s, a, r := nextU(6), nextU(3), rewards[nextU(len(rewards))]
			next := nextU(6)
			ft.Update(s, a, r, next)
			rt.Update(s, a, r, next)
		}
		for s := 0; s < 6; s++ {
			for a := 0; a < 3; a++ {
				if math.Abs(ft.Q(s, a)-rt.Q(s, a)) > 0.5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSaturation(t *testing.T) {
	ft := NewFixedTableOn(2, 2, DefaultFixedParams(), nil)
	ft.SetQ(0, 0, 1e6)
	if got := ft.Q(0, 0); got != float64(math.MaxInt16)/FixedOne {
		t.Errorf("SetQ did not saturate high: %v", got)
	}
	ft.SetQ(0, 0, -1e6)
	if got := ft.Q(0, 0); got != float64(math.MinInt16)/FixedOne {
		t.Errorf("SetQ did not saturate low: %v", got)
	}
	// Updates never wrap around either.
	for i := 0; i < 100; i++ {
		ft.Update(0, 0, 127, 1)
	}
	if got := ft.Q(0, 0); got > float64(math.MaxInt16)/FixedOne || got < 0 {
		t.Errorf("update wrapped around: %v", got)
	}
}

func TestFixedNeverExceedsInt16Property(t *testing.T) {
	prop := func(rewardsRaw []int8, states uint8) bool {
		n := int(states%4) + 2
		ft := NewFixedTableOn(n, 3, DefaultFixedParams(), nil)
		for i, rr := range rewardsRaw {
			s, a, next := i%n, i%3, (i+1)%n
			ft.Update(s, a, float64(rr), next)
		}
		for s := 0; s < n; s++ {
			for a := 0; a < 3; a++ {
				raw := ft.Raw(s, a)
				if int32(raw) > math.MaxInt16 || int32(raw) < math.MinInt16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedMemoryBytes(t *testing.T) {
	ft := NewFixedTableOn(54, 3, DefaultFixedParams(), nil)
	if got := ft.MemoryBytes(); got != 324 {
		t.Errorf("MemoryBytes = %d, want 324 (54 subslots × 3 actions × 2 B)", got)
	}
	qt := NewQuantTableOn(54, 3, DefaultQuantParams(), nil)
	if got := qt.MemoryBytes(); got != 162 {
		t.Errorf("quant MemoryBytes = %d, want 162", got)
	}
}

// TestQuantLearnsBandit checks the 8-bit table still separates a good from a
// bad action in a simple stochastic bandit, the qualitative claim behind the
// paper's §7 quantization proposal.
func TestQuantLearnsBandit(t *testing.T) {
	qt := NewQuantTableOn(1, 2, DefaultQuantParams(), nil)
	l := NewLearner(qt, 0)
	for i := 0; i < 50; i++ {
		l.Observe(0, 0, -3, 0) // always collides
		l.Observe(0, 1, 4, 0)  // always succeeds
	}
	if qt.Q(0, 1) <= qt.Q(0, 0) {
		t.Fatalf("quant table failed to separate actions: Q(bad)=%v Q(good)=%v", qt.Q(0, 0), qt.Q(0, 1))
	}
	if l.Policy(0) != 1 {
		t.Fatalf("policy = %d, want 1", l.Policy(0))
	}
}

func TestQuantSaturation(t *testing.T) {
	qt := NewQuantTableOn(1, 1, DefaultQuantParams(), nil)
	for i := 0; i < 200; i++ {
		qt.Update(0, 0, 31, 0)
	}
	if got := qt.Raw(0, 0); got != math.MaxInt8 {
		t.Errorf("Raw after repeated max rewards = %d, want %d", got, math.MaxInt8)
	}
	for i := 0; i < 500; i++ {
		qt.Update(0, 0, -31, 0)
	}
	if got := qt.Raw(0, 0); got != math.MinInt8 {
		t.Errorf("Raw after repeated min rewards = %d, want the rail %d", got, math.MinInt8)
	}
}

// TestTableInterfaceContract runs a shared contract over all three
// implementations.
func TestTableInterfaceContract(t *testing.T) {
	tables := map[string]Table{"float": NewFloatTable(5, 3, DefaultParams())}
	for _, c := range intCases {
		tables[c.name] = c.mk(5, 3, c.def)
	}
	for name, tb := range tables {
		t.Run(name, func(t *testing.T) {
			if tb.States() != 5 || tb.Actions() != 3 {
				t.Fatalf("dimensions = %dx%d", tb.States(), tb.Actions())
			}
			if got := tb.Q(2, 1); got != -10 {
				t.Fatalf("initial Q = %v, want -10", got)
			}
			tb.SetQ(2, 1, 5)
			if got := tb.Q(2, 1); got != 5 {
				t.Fatalf("SetQ/Q = %v, want 5", got)
			}
			if got := tb.MaxQ(2); got != 5 {
				t.Fatalf("MaxQ = %v, want 5", got)
			}
			if got := tb.ArgMax(2); got != 1 {
				t.Fatalf("ArgMax = %d, want 1", got)
			}
			// An improving update reports improved=true.
			if _, improved := tb.Update(0, 0, 4, 2); !improved {
				t.Fatal("improving update reported improved=false")
			}
			tb.Reset()
			if got := tb.Q(2, 1); got != -10 {
				t.Fatalf("Reset left Q = %v", got)
			}
		})
	}
}

// TestIntTableRawPinned pins both widths bit for bit: a seeded stream of
// 200k updates (integer, fractional and non-finite rewards, with occasional
// SetQ overwrites) under the default and a non-default parameter set,
// hashing every improved flag and the final raw contents. No golden digest
// runs an integer table, so these hashes are what holds the arithmetic
// fixed; they were taken from the separate Q8.8 and 8-bit implementations
// that IntTable replaced.
func TestIntTableRawPinned(t *testing.T) {
	custom := map[string]rawParams{
		"fixed": {AlphaShift: 3, GammaNum: 200, Xi: 100, InitQ: -3000},
		"quant": {AlphaShift: 3, GammaNum: 200, Xi: 3, InitQ: -60},
	}
	want := map[string][2]uint64{
		"fixed": {0x326ba554da7d1991, 0x9314ba92192afeae},
		"quant": {0x48af7f5b029b1e71, 0xc462c3949f7cdc06},
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12, -1e12}
	for _, c := range intCases {
		for i, p := range []rawParams{c.def, custom[c.name]} {
			tab := c.mk(54, 3, p)
			h := fnv.New64a()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			var buf [8]byte
			for step := 0; step < 200000; step++ {
				s, a, next := rng.Intn(54), rng.Intn(3), rng.Intn(54)
				var r float64
				switch k := rng.Intn(100); {
				case k < 3:
					r = specials[rng.Intn(len(specials))]
				case k < 18:
					r = rng.Float64()*80 - 40
				default:
					r = float64(rng.Intn(9) - 4)
				}
				if rng.Intn(50) == 0 {
					tab.SetQ(s, a, rng.Float64()*60-30)
				}
				_, improved := tab.Update(s, a, r, next)
				buf[0] = 0
				if improved {
					buf[0] = 1
				}
				h.Write(buf[:1])
			}
			for s := 0; s < 54; s++ {
				for a := 0; a < 3; a++ {
					binary.LittleEndian.PutUint64(buf[:], uint64(tab.rawAt(s, a)))
					h.Write(buf[:c.bytes])
				}
			}
			if got := h.Sum64(); got != want[c.name][i] {
				t.Errorf("%s params %+v: hash %#x, want %#x", c.name, p, got, want[c.name][i])
			}
		}
	}
}
