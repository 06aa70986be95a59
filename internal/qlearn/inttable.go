package qlearn

import (
	"fmt"
	"math"
)

// Integer Q-tables for the paper's resource argument. One algorithm runs at
// two storage widths:
//
//   - int16 Q8.8 (range ±128, resolution 1/256) for the FIT IoT-LAB M3
//     nodes, whose Cortex-M3 has no floating-point unit (§3.2). The paper
//     realizes α=0.5 as a right shift by one and uses integer rewards;
//     IntTable[int16] reproduces that arithmetic bit-exactly.
//   - int8 Q5.2 (range ±32 in steps of 0.25), exercising the paper's
//     future-work claim (§7) that "only 2-8 Bit are required" per entry.
//
// α is a power-of-two shift and γ a rational with denominator 256. The
// width fixes the scale, the saturation rails and the parameter bounds;
// none of them is an option.

// FixedOne is the Q8.8 representation of 1.0.
const FixedOne = 256

// quantScale is the number of raw 8-bit steps per unit (Q5.2 → 4).
const quantScale = 4

// IntValue is the set of storage widths an IntTable supports.
type IntValue interface{ int8 | int16 }

// intWidth is what a storage width implies.
type intWidth struct {
	// scale is the number of raw steps per unit; unit is 1/scale, exact
	// because scale is a power of two, so multiplying by it equals dividing
	// by scale.
	scale, unit float64
	// min and max are the saturation rails.
	min, max int64
	// maxShift is the largest AlphaShift the width accepts.
	maxShift uint
	// bytes is the storage per entry; name labels the range in errors.
	bytes int
	name  string
}

func widthOf[T IntValue]() intWidth {
	var zero T
	if _, ok := any(zero).(int8); ok {
		return intWidth{scale: quantScale, unit: 1.0 / quantScale, min: math.MinInt8, max: math.MaxInt8,
			maxShift: 7, bytes: 1, name: "int8"}
	}
	return intWidth{scale: FixedOne, unit: 1.0 / FixedOne, min: math.MinInt16, max: math.MaxInt16,
		maxShift: 8, bytes: 2, name: "int16"}
}

// IntParams holds integer-only hyperparameters for an IntTable, in the
// width's raw steps.
type IntParams[T IntValue] struct {
	// AlphaShift encodes α = 2^-AlphaShift (1 → α = 0.5, the paper's value).
	AlphaShift uint
	// GammaNum encodes γ = GammaNum/256 (230 → γ ≈ 0.8984, the closest Q8.8
	// value to the paper's 0.9).
	GammaNum int32
	// Xi is the penalty ξ in raw steps (Q8.8: 512 → ξ = 2).
	Xi int32
	// InitQ is the initial value in raw steps (Q8.8: −2560 → −10).
	InitQ int32
}

// DefaultFixedParams mirrors DefaultParams in Q8.8.
func DefaultFixedParams() IntParams[int16] {
	return IntParams[int16]{AlphaShift: 1, GammaNum: 230, Xi: 2 * FixedOne, InitQ: -10 * FixedOne}
}

// DefaultQuantParams mirrors DefaultParams in quarter-unit steps.
func DefaultQuantParams() IntParams[int8] {
	return IntParams[int8]{AlphaShift: 1, GammaNum: 230, Xi: 2 * quantScale, InitQ: -10 * quantScale}
}

// Validate reports a descriptive error for unusable parameters. The bounds
// on AlphaShift and InitQ are the width's: at most 8 and within int16 for
// Q8.8, at most 7 and within int8 for 8-bit storage.
func (p IntParams[T]) Validate() error {
	w := widthOf[T]()
	switch {
	case p.AlphaShift > w.maxShift:
		return fmt.Errorf("qlearn: AlphaShift=%d too large (max %d)", p.AlphaShift, w.maxShift)
	case p.GammaNum < 0 || p.GammaNum > 256:
		return fmt.Errorf("qlearn: GammaNum=%d out of [0,256]", p.GammaNum)
	case p.Xi < 0:
		return fmt.Errorf("qlearn: Xi=%d must be non-negative", p.Xi)
	case int64(p.InitQ) < w.min || int64(p.InitQ) > w.max:
		return fmt.Errorf("qlearn: InitQ=%d out of %s range", p.InitQ, w.name)
	}
	return nil
}

// IntTable is a Table backed by one T per entry using only integer shifts,
// additions and one widening multiplication per update — exactly the
// operation budget §3.2 claims for resource-restricted devices. It always
// applies the QMA rule (Eq. 5).
type IntTable[T IntValue] struct {
	p       IntParams[T]
	w       intWidth
	states  int
	actions int
	q       []T
}

var (
	_ Table = (*IntTable[int16])(nil)
	_ Table = (*IntTable[int8])(nil)
)

// NewIntTable returns a states × actions table initialized to p.InitQ,
// placing the values in backing, which must hold exactly states × actions
// elements; nil backing allocates privately. It panics on invalid
// parameters or non-positive dimensions.
func NewIntTable[T IntValue](states, actions int, p IntParams[T], backing []T) *IntTable[T] {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	t := &IntTable[T]{p: p, w: widthOf[T](), states: states, actions: actions, q: shapeBacking(states, actions, backing)}
	t.Reset()
	return t
}

// NewFixedTableOn is NewIntTable at the Q8.8 width.
func NewFixedTableOn(states, actions int, p IntParams[int16], backing []int16) *IntTable[int16] {
	return NewIntTable(states, actions, p, backing)
}

// NewQuantTableOn is NewIntTable at the 8-bit width.
func NewQuantTableOn(states, actions int, p IntParams[int8], backing []int8) *IntTable[int8] {
	return NewIntTable(states, actions, p, backing)
}

// States implements Table.
func (t *IntTable[T]) States() int { return t.states }

// Actions implements Table.
func (t *IntTable[T]) Actions() int { return t.actions }

func (t *IntTable[T]) idx(s, a int) int { return s*t.actions + a }

// Raw reports the untranslated value for (s, a) in raw steps.
func (t *IntTable[T]) Raw(s, a int) T { return t.q[t.idx(s, a)] }

// Q implements Table.
func (t *IntTable[T]) Q(s, a int) float64 { return float64(t.q[t.idx(s, a)]) * t.w.unit }

// SetQ implements Table; v is rounded to the nearest raw step and
// saturated. Non-finite inputs saturate deterministically: +Inf to the
// largest representable value, −Inf to the smallest, NaN to zero.
func (t *IntTable[T]) SetQ(s, a int, v float64) {
	t.q[t.idx(s, a)] = t.saturate(int64(quantize(v, t.w.scale)))
}

// quantize rounds v·scale half-away-from-zero into an int32. Converting a
// non-finite (or out-of-range) float64 to an integer is implementation-
// defined in Go, so the non-finite and overflowing cases are pinned here
// before any conversion: NaN → 0, +Inf and huge positives → MaxInt32, −Inf
// and huge negatives → MinInt32. Callers saturate the result to their
// storage width, which turns MaxInt32/MinInt32 into their own bounds.
func quantize(v, scale float64) int32 {
	v *= scale
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(roundHalfAway(v))
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}

// saturate clamps v to the width's rails.
func (t *IntTable[T]) saturate(v int64) T {
	if v > t.w.max {
		return T(t.w.max)
	}
	if v < t.w.min {
		return T(t.w.min)
	}
	return T(v)
}

func (t *IntTable[T]) maxRaw(s int) T {
	row := t.q[s*t.actions : (s+1)*t.actions]
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxQ implements Table.
func (t *IntTable[T]) MaxQ(s int) float64 { return float64(t.maxRaw(s)) * t.w.unit }

// ArgMax implements Table.
func (t *IntTable[T]) ArgMax(s int) int {
	row := t.q[s*t.actions : (s+1)*t.actions]
	best := 0
	for a := 1; a < len(row); a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

// Update implements Table using only integer arithmetic: one widening
// multiplication for γ·maxQ(next), two arithmetic shifts for α, and
// additions. Arithmetic right shifts round toward −∞, matching what a
// Cortex-M3 ASR instruction produces. The accumulation is carried in int64
// so even a reward saturated by quantize cannot wrap before the final
// saturation to the storage width.
func (t *IntTable[T]) Update(s, a int, r float64, next int) (float64, bool) {
	i := t.idx(s, a)
	old := int64(t.q[i])
	rQ := int64(quantize(r, t.w.scale))
	target := rQ + (int64(t.p.GammaNum)*int64(t.maxRaw(next)))>>8
	// (1−α)·old + α·target with α = 2^-shift: old − (old>>shift) + (target>>shift).
	newV := old - (old >> t.p.AlphaShift) + (target >> t.p.AlphaShift)
	stored := old - int64(t.p.Xi)
	if newV > stored {
		stored = newV
	}
	sat := t.saturate(stored)
	t.q[i] = sat
	return float64(sat) * t.w.unit, newV > old
}

// Reset implements Table.
func (t *IntTable[T]) Reset() {
	init := t.saturate(int64(t.p.InitQ))
	for i := range t.q {
		t.q[i] = init
	}
}

// MemoryBytes reports the table's value-storage footprint, the figure the
// paper's resource-efficiency argument is about (54 subslots × 3 actions ×
// 2 bytes = 324 bytes in Q8.8 on the M3, 162 bytes in 8-bit storage).
func (t *IntTable[T]) MemoryBytes() int { return len(t.q) * t.w.bytes }
