// Package barring implements sink-side load-adaptive access-class barring,
// the control loop that keeps a contention network stable past saturation:
// once per beacon interval the sink folds the congestion it observed on the
// medium — collisions, captures, delivered rate, channel occupancy — into a
// barring factor p ∈ [0,1] and broadcasts it (with a barring backoff time)
// in the beacon. Nodes gate every new channel-access attempt on a
// Bernoulli(p) draw (mac.Base), so the admitted load tracks what the channel
// can carry instead of whatever the sources offer — the access-control half
// of the decoupled massive-access design in PAPERS.md.
//
// Everything here is a pure, deterministic controller: it draws no
// randomness, and its zero-valued Config is disabled and guaranteed not to
// change a run in any way (the same convention internal/faults and the
// dynamics config pin).
package barring

import (
	"fmt"

	"qma/internal/sim"
)

// Policy selects a controller flavour. The zero value disables barring.
type Policy string

const (
	// PolicyOff disables barring entirely (the zero value).
	PolicyOff Policy = ""
	// PolicyFixed broadcasts a constant barring factor P.
	PolicyFixed Policy = "fixed"
	// PolicyAIMD additively opens admission while the channel is healthy and
	// multiplicatively cuts it when the collision ratio passes the target —
	// the TCP-flavoured rule that converges to a fair stable point.
	PolicyAIMD Policy = "aimd"
	// PolicyPID is a velocity-form PI controller on the collision ratio: it
	// reacts proportionally to the error change and integrally to the error
	// itself, trading AIMD's sawtooth for a smoother approach.
	PolicyPID Policy = "pid"
)

// Observation is one beacon interval's congestion estimate, assembled by the
// scenario from counters the sink already has: its own radio.NodeStats diff
// (delivered/collided/captured receptions) and the medium's channel
// occupancy.
type Observation struct {
	// Delivered counts frames the sink decoded during the interval.
	Delivered uint64
	// Collided counts receptions the sink lost to collisions.
	Collided uint64
	// Captured counts receptions that survived an overlap via SINR capture
	// (they signal contention even though the frame got through).
	Captured uint64
	// BusyFraction is the channel-occupancy fraction of the interval: total
	// transmission airtime divided by interval length. Overlapping
	// transmissions count separately, so values above 1 indicate heavy
	// contention.
	BusyFraction float64
}

// CollisionRatio is the fraction of sink receptions that collided or needed
// capture to survive, 0 when the interval saw no traffic. It is the primary
// congestion signal: on a healthy channel it stays near zero, while past
// saturation most receptions collide.
func (o Observation) CollisionRatio() float64 {
	total := o.Delivered + o.Collided + o.Captured
	if total == 0 {
		return 0
	}
	return float64(o.Collided+o.Captured) / float64(total)
}

// Controller maps a stream of per-interval congestion observations to the
// barring factor broadcast in the next beacon. Implementations are
// deterministic state machines; Update must always return a value in [0,1].
type Controller interface {
	// Update folds one beacon interval's observation in and returns the
	// barring factor for the next interval.
	Update(o Observation) float64
}

// Default controller parameters, chosen so that a zero-valued knob selects a
// sensible behaviour rather than a degenerate one.
const (
	// DefaultTarget is the collision-ratio setpoint: the controllers aim to
	// keep roughly this fraction of sink receptions contested.
	DefaultTarget = 0.1
	// DefaultMinP is the admission floor: even a fully congested channel
	// keeps admitting a trickle, so the controller always sees fresh
	// observations and starvation cannot become permanent.
	DefaultMinP = 0.05
	// defaultIncrease is AIMD's additive step per healthy interval.
	defaultIncrease = 0.05
	// defaultDecrease is AIMD's multiplicative cut per congested interval.
	defaultDecrease = 0.5
	// defaultKp and defaultKi are the PID policy's gains on the
	// collision-ratio error (velocity form).
	defaultKp = 0.5
	// defaultKi is deliberately gentle: the integral term acts every
	// interval, so a large gain would oscillate.
	defaultKi = 0.25
)

// Config selects and parameterizes a controller, plus the beacon-loop timing
// the scenario needs. The zero value is disabled; zero-valued knobs of an
// enabled config select the documented defaults.
type Config struct {
	// Policy selects the controller ("" disables barring).
	Policy Policy
	// P is the fixed policy's factor, and the initial factor of the adaptive
	// policies (0 selects 1: start fully open).
	P float64
	// Target is the collision-ratio setpoint for aimd/pid
	// (0 selects DefaultTarget).
	Target float64
	// MinP is the admission floor (0 selects DefaultMinP; the fixed policy
	// ignores it).
	MinP float64
	// Interval is the beacon/control interval at which the sink re-estimates
	// congestion and re-broadcasts p (0 selects one superframe).
	Interval sim.Time
	// Backoff is the barring backoff time broadcast with p: how long a
	// barred node waits before redrawing (0 selects one superframe).
	Backoff sim.Time
}

// Enabled reports whether the config arms barring at all.
func (c *Config) Enabled() bool { return c.Policy != PolicyOff }

// Validate reports a descriptive error when the config is not realizable.
// A disabled config is always valid. Each range check is written as the
// range the value must lie in, so NaN fails it.
func (c *Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch c.Policy {
	case PolicyFixed, PolicyAIMD, PolicyPID:
	default:
		return fmt.Errorf("barring: unknown policy %q (want fixed, aimd or pid)", c.Policy)
	}
	if !(c.P >= 0 && c.P <= 1) {
		return fmt.Errorf("barring: factor P=%v outside [0,1]", c.P)
	}
	if !(c.Target >= 0 && c.Target < 1) {
		return fmt.Errorf("barring: target collision ratio %v outside [0,1)", c.Target)
	}
	if !(c.MinP >= 0 && c.MinP <= 1) {
		return fmt.Errorf("barring: admission floor MinP=%v outside [0,1]", c.MinP)
	}
	if c.Interval < 0 {
		return fmt.Errorf("barring: negative interval %v", c.Interval)
	}
	if c.Backoff < 0 {
		return fmt.Errorf("barring: negative backoff %v", c.Backoff)
	}
	return nil
}

// initialP resolves the configured starting factor.
func (c *Config) initialP() float64 {
	if c.P == 0 {
		return 1
	}
	return clamp(c.P)
}

func (c *Config) target() float64 {
	if c.Target == 0 {
		return DefaultTarget
	}
	return c.Target
}

func (c *Config) minP() float64 {
	if c.MinP == 0 {
		return DefaultMinP
	}
	return c.MinP
}

// New builds the configured controller. The config must be enabled and
// valid; scenario builders call Validate first.
func New(c Config) Controller {
	switch c.Policy {
	case PolicyFixed:
		return &fixed{p: c.initialP()}
	case PolicyAIMD:
		return &aimd{p: c.initialP(), target: c.target(), minP: c.minP(),
			inc: defaultIncrease, dec: defaultDecrease}
	case PolicyPID:
		return &pid{p: c.initialP(), target: c.target(), minP: c.minP(),
			kp: defaultKp, ki: defaultKi}
	default:
		panic(fmt.Sprintf("barring: New on policy %q (validate first)", c.Policy))
	}
}

func clamp(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// clampFloor clamps p into [minP, 1].
func clampFloor(p, minP float64) float64 {
	if p < minP {
		return minP
	}
	return clamp(p)
}

// fixed always broadcasts the same factor.
type fixed struct{ p float64 }

func (f *fixed) Update(Observation) float64 { return f.p }

// aimd opens admission additively while the collision ratio sits at or below
// the target and halves it when congestion passes the setpoint. An idle
// interval (no receptions, idle channel) also opens admission: the network
// may simply have drained.
type aimd struct {
	p, target, minP float64
	inc, dec        float64
}

func (a *aimd) Update(o Observation) float64 {
	if o.CollisionRatio() > a.target {
		a.p = clampFloor(a.p*a.dec, a.minP)
	} else {
		a.p = clampFloor(a.p+a.inc, a.minP)
	}
	return a.p
}

// pid is a velocity-form PI controller on the collision-ratio error: the
// factor moves by kp·Δerror + ki·error each interval, so steady error keeps
// pushing (integral action) without the controller ever storing an unbounded
// integral term.
type pid struct {
	p, target, minP float64
	kp, ki          float64
	prevErr         float64
	primed          bool
}

func (c *pid) Update(o Observation) float64 {
	err := c.target - o.CollisionRatio() // positive: channel healthier than setpoint
	if !c.primed {
		c.prevErr, c.primed = err, true
	}
	c.p = clampFloor(c.p+c.kp*(err-c.prevErr)+c.ki*err, c.minP)
	c.prevErr = err
	return c.p
}

// Beacon is the barring payload a sink broadcasts each beacon interval.
// Beacons are implicit in this simulator — nodes synchronize through the
// shared superframe clock — so the payload travels as a control-loop event
// that calls mac.Base.SetBarring on every node at the beacon instant.
type Beacon struct {
	// P is the barring factor for the next interval.
	P float64
	// Backoff is how long a barred node waits before redrawing.
	Backoff sim.Time
}
