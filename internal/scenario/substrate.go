package scenario

import (
	"cmp"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// Substrate is what every run stands on: the kernel, the superframe clock,
// the medium, and the frame pool and per-node slab the engines draw from.
// Run and the DSME runner both build it with NewSubstrate, so the stream
// layout, budget, invariant checks, storage recycling and barring loop are
// written once.
type Substrate struct {
	Kernel  *sim.Kernel
	Clock   *superframe.Clock
	Medium  *radio.Medium
	Pool    *frame.Pool
	Scratch *mac.Scratch

	arena   *arena // the recycled storage behind Kernel, Pool and Scratch
	seed    uint64
	sink    frame.NodeID
	barring barring.Config
}

// The random stream layout of a run: engine i draws from stream i, every
// other consumer from a fixed offset (plus the node index where it is per
// node), and the Gilbert–Elliott process derives per-link streams of its
// own from the seed. Fixed offsets keep every consumer's stream stable when
// instrumentation is added or removed.
const (
	// StreamMedium is the medium's stream.
	StreamMedium = 1000
	// StreamTraffic+i (+500 per traffic tag) drives node i's data source.
	StreamTraffic = 2000
	// StreamBroadcast+i drives node i's route-discovery broadcasts.
	StreamBroadcast = 3000
	// StreamBarring+i drives node i's access-barring gate, drawn from only
	// when barring is configured.
	StreamBarring = 4000
	// StreamDSME+i drives DSME node i's slot controller.
	StreamDSME = 5000
)

// NewSubstrate assembles a run's substrate from cfg's Network, Seed,
// CaptureThresholdDB, Dynamics, EventBudget, InvariantChecks and Barring on
// the default superframe layout. Its kernel, frame pool and slab recycle the
// storage of an earlier run that called Release. cfg must be valid.
func NewSubstrate(cfg *Config) *Substrate {
	a := takeArena()
	s := &Substrate{
		Kernel:  a.kernel,
		Clock:   superframe.NewClock(superframe.DefaultConfig()),
		Pool:    &a.pool,
		Scratch: &a.scratch,
		arena:   a,
		seed:    cfg.Seed,
		sink:    cfg.Network.Sink,
		barring: cfg.Barring,
	}
	topology := cfg.Network.Topology
	if len(cfg.Dynamics.Moves) > 0 {
		// Moves mutate positions; run on a private clone so the Network
		// stays shareable across parallel replications.
		topology = topology.(*radio.PathLossTopology).Clone()
	}
	s.Medium = radio.NewMedium(s.Kernel, topology, sim.NewRandStream(cfg.Seed, StreamMedium))
	if cfg.CaptureThresholdDB > 0 {
		s.Medium.SetCaptureThreshold(cfg.CaptureThresholdDB)
	}
	if cfg.EventBudget > 0 {
		s.Kernel.SetBudget(cfg.EventBudget)
	}
	if cfg.Dynamics.Enabled() {
		armDynamics(s.Kernel, s.Medium, cfg.Dynamics, cfg.Seed)
	}
	if cfg.InvariantChecks {
		s.Kernel.SetInvariantChecks(true)
		s.Medium.SetInvariantChecks(true)
		s.Pool.SetChecks(true)
	}
	return s
}

// Release hands the run's kernel, frame pool and slab to a later run to
// recycle. A runner calls it once its result is collected: the later run
// rewinds the slab under the engines and zeroes the frames, so nothing of
// this run but the kernel's counters may be read afterwards. Calls after
// the first are no-ops.
func (s *Substrate) Release() {
	if s.arena != nil {
		arenas.Put(s.arena)
		s.arena = nil
	}
}

// MACConfig returns the fields of node id's mac.Config that every MAC of a
// run shares: its address, the kernel, medium, clock, frame pool and slab,
// and its access-barring stream. The stream is nil when barring is off: a
// zero-valued barring config must leave every node's stream set — and
// therefore the whole run — byte-identical to a pre-barring build.
func (s *Substrate) MACConfig(id frame.NodeID) mac.Config {
	cfg := mac.Config{
		ID:        id,
		Kernel:    s.Kernel,
		Medium:    s.Medium,
		Clock:     s.Clock,
		FramePool: s.Pool,
		Scratch:   s.Scratch,
	}
	if s.barring.Enabled() {
		cfg.BarringRng = sim.NewRandStream(s.seed, StreamBarring+uint64(id))
	}
	return cfg
}

// ArmBarring installs the sink-side access-class barring loop over engines,
// or nothing when barring is off. Once per beacon interval (default: one
// superframe, the implicit beacon) the sink diffs the deliveries,
// collisions, captures and channel airtime it observes on the medium into a
// barring.Observation, and pushes the controller's barring factor to every
// engine's MAC base as the beacon payload. The loop draws no randomness.
func (s *Substrate) ArmBarring(engines []mac.Engine) {
	cfg := s.barring
	if !cfg.Enabled() {
		return
	}
	sfd := s.Clock.Config().SuperframeDuration()
	l := &barringLoop{
		s:        s,
		engines:  engines,
		ctrl:     barring.New(cfg),
		interval: cmp.Or(cfg.Interval, sfd),
		backoff:  cmp.Or(cfg.Backoff, sfd),
	}
	s.Kernel.AtCall(s.Kernel.Now()+l.interval, barringBeacon, l)
}

// barringLoop is the state of the sink-side barring loop between beacons.
type barringLoop struct {
	s                 *Substrate
	engines           []mac.Engine
	ctrl              barring.Controller
	interval, backoff sim.Time
	prev              radio.NodeStats
	prevAir           sim.Time
}

// barringBeacon is the loop's static kernel callback: one beacon interval's
// observation in, the new barring factor out to every engine, and the next
// beacon armed.
func barringBeacon(a any) {
	l := a.(*barringLoop)
	cur := l.s.Medium.Stats(l.s.sink)
	_, air := l.s.Medium.ChannelLoad()
	obs := barring.Observation{
		Delivered:    cur.RxDelivered - l.prev.RxDelivered,
		Collided:     cur.RxCollided - l.prev.RxCollided,
		Captured:     cur.RxCaptured - l.prev.RxCaptured,
		BusyFraction: float64(air-l.prevAir) / float64(l.interval),
	}
	l.prev, l.prevAir = cur, air
	p := l.ctrl.Update(obs)
	for _, e := range l.engines {
		e.Base().SetBarring(p, l.backoff)
	}
	l.s.Kernel.AtCall(l.s.Kernel.Now()+l.interval, barringBeacon, l)
}

// armDynamics installs the burst-error process and schedules the churn,
// mobility and fade events on the kernel. Events sharing an instant fire in
// configuration order (the kernel's scheduling order is total).
func armDynamics(kernel *sim.Kernel, medium *radio.Medium, d DynamicsConfig, seed uint64) {
	if d.Gilbert.Enabled() {
		medium.SetGilbertElliott(d.Gilbert, seed)
	}
	for _, f := range d.Fades {
		kernel.At(f.At, func() { medium.SetFadeUntil(f.Node, f.At+f.Duration) })
	}
	for _, c := range d.Churn {
		kernel.At(c.At, func() { medium.SetPresent(c.Node, !c.Leave) })
	}
	for _, mv := range d.Moves {
		kernel.At(mv.At, func() { medium.MoveNode(mv.Node, mv.To) })
	}
}
