package radio

import (
	"math"

	"qma/internal/frame"
	"qma/internal/sim"
)

// This file holds the time-varying parts of the radio model: the
// Gilbert–Elliott burst-error process (per-link two-state Markov channel)
// and the deterministic deep-fade windows scenarios use as controlled
// disturbances. Node churn and mobility live in medium.go (incremental link
// re-classification) and topology.go (the spatial index MoveNode edits);
// everything here is strictly opt-in — with no dynamics configured the
// medium consumes the exact same random draws, so static scenarios stay
// byte-identical.

// GilbertElliott parameterizes the two-state burst-error channel. Each link
// (unordered node pair) evolves independently between a Good and a Bad state
// with exponentially distributed sojourn times; a frame that survives
// collisions and the topology's static fading is additionally lost with the
// per-state loss probability. The zero value disables the process.
type GilbertElliott struct {
	// MeanGood and MeanBad are the mean sojourn times of the two states.
	// Both must be positive for the process to be enabled.
	MeanGood, MeanBad sim.Time
	// LossGood and LossBad are the per-frame loss probabilities in each
	// state (typically LossGood ≈ 0 and LossBad close to 1: a burst fade).
	LossGood, LossBad float64
}

// Enabled reports whether the process is configured to do anything.
func (g GilbertElliott) Enabled() bool {
	return g.MeanGood > 0 && g.MeanBad > 0 && (g.LossGood > 0 || g.LossBad > 0)
}

// piBad is the stationary probability of the Bad state.
func (g GilbertElliott) piBad() float64 {
	lg := 1 / g.MeanGood.Seconds()
	lb := 1 / g.MeanBad.Seconds()
	return lg / (lg + lb)
}

// geLink is the lazily materialized per-link channel state. Links get an
// entry on their first delivery check, so memory is O(links actually used),
// not O(N²).
type geLink struct {
	rng *sim.Rand
	bad bool
	at  sim.Time
}

// geProcess tracks the Gilbert–Elliott state of every active link. The state
// is sampled lazily: a link's continuous-time chain is only evaluated at the
// instants a frame crosses it, using the closed-form two-state transition
// probability over the elapsed gap — no per-link timer events exist, so the
// process costs O(1) per reception and nothing while a link is silent.
type geProcess struct {
	cfg  GilbertElliott
	seed uint64
	// links is keyed by the packed unordered node pair.
	links map[uint32]*geLink
}

func newGEProcess(cfg GilbertElliott, seed uint64) *geProcess {
	return &geProcess{cfg: cfg, seed: seed, links: make(map[uint32]*geLink)}
}

// geLinkKey packs the unordered pair (a, b) into a map key. The channel is
// symmetric: data frames and the ACKs answering them see the same burst.
func geLinkKey(a, b frame.NodeID) uint32 {
	if a > b {
		a, b = b, a
	}
	return uint32(uint16(a))<<16 | uint32(uint16(b))
}

// deliver evolves the link's state to now and reports whether a frame
// crossing the link at this instant survives the burst-error process. All
// randomness comes from a per-link stream derived from the process seed and
// the link key, so the draw order of every other stream in the simulation is
// untouched and the process itself is reproducible regardless of which other
// links are active.
func (p *geProcess) deliver(src, dst frame.NodeID, now sim.Time) bool {
	key := geLinkKey(src, dst)
	l := p.links[key]
	if l == nil {
		l = &geLink{rng: sim.NewRandStream(p.seed, 1_000_000+uint64(key)), at: now}
		l.bad = l.rng.Float64() < p.cfg.piBad() // stationary initial state
		p.links[key] = l
	} else if now > l.at {
		l.evolve(p.cfg, now)
	}
	loss := p.cfg.LossGood
	if l.bad {
		loss = p.cfg.LossBad
	}
	return !(loss > 0 && l.rng.Float64() < loss)
}

// evolve samples the state at time now given the state recorded at l.at,
// using the closed-form marginal of the two-state continuous-time chain:
// P(bad at t+Δ) = πBad + (1{bad at t} − πBad)·e^{−(λg+λb)Δ}.
func (l *geLink) evolve(cfg GilbertElliott, now sim.Time) {
	lg := 1 / cfg.MeanGood.Seconds()
	lb := 1 / cfg.MeanBad.Seconds()
	decay := math.Exp(-(lg + lb) * (now - l.at).Seconds())
	piBad := lg / (lg + lb)
	pBad := piBad * (1 - decay)
	if l.bad {
		pBad = piBad + (1-piBad)*decay
	}
	l.bad = l.rng.Float64() < pBad
	l.at = now
}
