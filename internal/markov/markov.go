// Package markov implements the paper's Appendix A.1 analysis: the absorbing
// Markov chain of the DSME 3-way GTS handshake (Fig. 25), its canonical-form
// transition matrix (Eq. 10), the fundamental matrix N = (I−Q)⁻¹ (Eq. 11)
// and the expected number of messages until a handshake completes (Eq. 12,
// Fig. 26). A closed-form derivation and a Monte-Carlo simulator provide two
// independent cross-checks of the matrix computation.
package markov

import (
	"fmt"
	"math"
	"sync"

	"qma/internal/sim"
)

// Chain is an absorbing Markov chain in canonical form: Q holds the
// transient-to-transient transition probabilities (t × t) and R the
// transient-to-absorbing probabilities (t × r).
type Chain struct {
	Q [][]float64
	R [][]float64
}

// Validate checks that the chain is stochastic: every row of [Q R] must sum
// to 1 (within tolerance) and all entries must be probabilities.
func (c *Chain) Validate() error {
	t := len(c.Q)
	for i, row := range c.Q {
		if len(row) != t {
			return fmt.Errorf("markov: Q row %d has %d entries, want %d", i, len(row), t)
		}
		sum := 0.0
		for _, v := range row {
			if !(v >= 0 && v <= 1) {
				return fmt.Errorf("markov: Q[%d] contains non-probability %v", i, v)
			}
			sum += v
		}
		if i < len(c.R) {
			for _, v := range c.R[i] {
				if !(v >= 0 && v <= 1) {
					return fmt.Errorf("markov: R[%d] contains non-probability %v", i, v)
				}
				sum += v
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: row %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}

// newMatrix returns a rows×cols zero matrix whose rows view one flat
// backing slice (two allocations instead of rows+1).
func newMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = backing[i*cols : (i+1)*cols]
	}
	return m
}

// Fundamental computes N = (I−Q)⁻¹ by Gaussian elimination with partial
// pivoting. It returns an error when I−Q is singular (the chain would never
// be absorbed from some state). The returned rows share one backing slice.
func (c *Chain) Fundamental() ([][]float64, error) {
	t := len(c.Q)
	aug := newMatrix(t, 2*t)
	n := newMatrix(t, t)
	if err := c.fundamentalInto(aug, n); err != nil {
		return nil, err
	}
	return n, nil
}

// fundamentalInto computes N = (I−Q)⁻¹ into n, using aug (t×2t) as
// elimination scratch. Both may hold stale values: every cell is rewritten.
// Factoring the scratch out of Fundamental lets the Fig. 26 sweep reuse one
// workspace across points instead of allocating ~54 objects per solve.
func (c *Chain) fundamentalInto(aug, n [][]float64) error {
	t := len(c.Q)
	// Build the augmented matrix [I−Q | I].
	a := aug
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			a[i][j] = -c.Q[i][j]
			if i == j {
				a[i][j] += 1
			}
			a[i][t+j] = 0
		}
		a[i][t+i] = 1
	}
	for col := 0; col < t; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < t; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return fmt.Errorf("markov: I-Q is singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for j := col; j < 2*t; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < t; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j < 2*t; j++ {
				a[r][j] -= f * a[col][j]
			}
		}
	}
	for i := 0; i < t; i++ {
		copy(n[i], a[i][t:])
	}
	return nil
}

// AbsorptionProbs computes B = N·R: AbsorptionProbs()[i][k] is the
// probability of ending in absorbing state k when starting in transient
// state i.
func (c *Chain) AbsorptionProbs() ([][]float64, error) {
	n, err := c.Fundamental()
	if err != nil {
		return nil, err
	}
	t := len(n)
	if t == 0 || len(c.R) != t {
		return nil, fmt.Errorf("markov: R has %d rows, want %d", len(c.R), t)
	}
	r := len(c.R[0])
	out := make([][]float64, t)
	for i := 0; i < t; i++ {
		out[i] = make([]float64, r)
		for k := 0; k < r; k++ {
			for j := 0; j < t; j++ {
				out[i][k] += n[i][j] * c.R[j][k]
			}
		}
	}
	return out, nil
}

// HandshakeStates is the number of transient states of the Eq. 10 chain:
// the three handshake messages plus three retransmissions each.
const HandshakeStates = 12

// HandshakeChain builds the paper's Eq. 10 chain for per-message success
// probability p: states 0/3/4/5 are the GTS-request and its retries TX0–TX2,
// 1/6/7/8 the GTS-response with TX3–TX5, 2/9/10/11 the GTS-notify with
// TX6–TX8. A message dropped after 3 retries restarts the whole handshake;
// a successful notify absorbs into Success.
func HandshakeChain(p float64) *Chain {
	c := &Chain{
		Q: newMatrix(HandshakeStates, HandshakeStates),
		R: newMatrix(HandshakeStates, 1),
	}
	fillHandshakeChain(c, p)
	return c
}

// fillHandshakeChain writes the Eq. 10 transition probabilities into the
// (possibly reused) matrices of c.
func fillHandshakeChain(c *Chain, p float64) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("markov: p=%v out of [0,1]", p))
	}
	q, r := c.Q, c.R
	for i := range q {
		for j := range q[i] {
			q[i][j] = 0
		}
		r[i][0] = 0
	}
	f := 1 - p
	// Request chain: success moves to the response (state 1), failure walks
	// the retry states and finally restarts at 0.
	q[0][1], q[0][3] = p, f
	q[3][1], q[3][4] = p, f
	q[4][1], q[4][5] = p, f
	q[5][1], q[5][0] = p, f
	// Response chain: success moves to the notify (state 2).
	q[1][2], q[1][6] = p, f
	q[6][2], q[6][7] = p, f
	q[7][2], q[7][8] = p, f
	q[8][2], q[8][0] = p, f
	// Notify chain: success absorbs.
	q[2][9] = f
	r[2][0] = p
	q[9][10] = f
	r[9][0] = p
	q[10][11] = f
	r[10][0] = p
	q[11][0] = f
	r[11][0] = p
}

// handshakeWorkspace bundles every buffer one Eq. 12 evaluation needs, so a
// sweep over p (Fig. 26) performs zero heap allocations in steady state.
type handshakeWorkspace struct {
	chain Chain
	aug   [][]float64
	n     [][]float64
}

var handshakePool = sync.Pool{
	New: func() any {
		return &handshakeWorkspace{
			chain: Chain{
				Q: newMatrix(HandshakeStates, HandshakeStates),
				R: newMatrix(HandshakeStates, 1),
			},
			aug: newMatrix(HandshakeStates, 2*HandshakeStates),
			n:   newMatrix(HandshakeStates, HandshakeStates),
		}
	},
}

// ExpectedHandshakeMessages reports the expected number of transmitted
// messages until a 3-way handshake completes, computed from the fundamental
// matrix of the Eq. 10 chain (the Fig. 26 curve). It panics only on p
// outside [0,1]; p=0 returns +Inf. The solve runs on a pooled workspace and
// performs no heap allocations in steady state (safe for concurrent use —
// each caller takes its own workspace).
func ExpectedHandshakeMessages(p float64) float64 {
	if p == 0 {
		return math.Inf(1)
	}
	ws := handshakePool.Get().(*handshakeWorkspace)
	defer handshakePool.Put(ws)
	fillHandshakeChain(&ws.chain, p)
	if err := ws.chain.fundamentalInto(ws.aug, ws.n); err != nil {
		return math.Inf(1)
	}
	// Only the start state's expectation is needed: the expected number of
	// transient-state visits before absorption, S = N·1 (Eq. 12), is for
	// the start state the sum of the fundamental matrix's first row.
	s0 := 0.0
	for _, v := range ws.n[0] {
		s0 += v
	}
	return s0
}

// ExpectedHandshakeMessagesClosedForm derives the same quantity without
// matrices: each message is a geometric trial truncated at 4 attempts
// (a = E[attempts] = (1−(1−p)⁴)/p, s = P[stage succeeds] = 1−(1−p)⁴) and the
// handshake restarts whenever a stage fails, giving
// E = a·(1+s+s²) / (1 − (1−s)(1+s+s²)).
func ExpectedHandshakeMessagesClosedForm(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 3
	}
	q := 1 - p
	q4 := q * q * q * q
	s := 1 - q4
	a := s / p
	g := 1 + s + s*s
	den := 1 - (1-s)*g
	if den <= 0 {
		return math.Inf(1)
	}
	return a * g / den
}

// SimulateHandshakes runs n independent 3-way handshakes with per-message
// success probability p and returns the mean number of transmitted messages
// — the Monte-Carlo cross-check for Fig. 26.
func SimulateHandshakes(p float64, n int, rng *sim.Rand) float64 {
	if n <= 0 {
		return math.NaN()
	}
	total := 0
	for i := 0; i < n; i++ {
		total += simulateOne(p, rng)
	}
	return float64(total) / float64(n)
}

func simulateOne(p float64, rng *sim.Rand) int {
	msgs := 0
	for {
		restart := false
		for stage := 0; stage < 3 && !restart; stage++ {
			ok := false
			for attempt := 0; attempt < 4; attempt++ {
				msgs++
				if rng.Bool(p) {
					ok = true
					break
				}
			}
			if !ok {
				restart = true
			}
		}
		if !restart {
			return msgs
		}
	}
}

// PaperFig26 returns the (p, expected messages) pairs printed in the paper's
// Fig. 26, for the fig26 comparison table of qma-experiments. Note: solving
// the paper's own Eq. 10 matrix reproduces these values only for large p;
// below p≈0.7 the printed curve diverges from the printed matrix.
func PaperFig26() map[float64]float64 {
	return map[float64]float64{
		0.1: 41.79, 0.2: 15.91, 0.3: 9.91, 0.4: 7.33, 0.5: 5.88,
		0.6: 4.94, 0.7: 4.26, 0.8: 3.74, 0.9: 3.33, 1.0: 3,
	}
}
