// Package traffic generates the offered load of the paper's scenarios:
// Poisson data sources with fixed or alternating rates (§6.1, §6.3), bounded
// evaluation-packet counts, warm-up offsets and the periodic route-discovery
// broadcasts that stand in for GPSR (§6.3).
package traffic

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/sim"
)

// DefaultDataMPDU is the data-frame MPDU length used throughout the
// evaluation: 80 bytes ≈ 2.75 ms on air, so a frame spans up to 3 subslots,
// matching §6.1.3 ("transmissions span over up to 3 subslots"). The length
// also calibrates the CSMA/CA congestion collapse of Fig. 7 to the paper's
// rate range.
const DefaultDataMPDU = 80

// BroadcastMPDU is the MPDU length of a route-discovery broadcast.
const BroadcastMPDU = 30

// Enqueuer is where generated frames go (a mac.Engine or a dsme.Node).
type Enqueuer interface {
	Enqueue(f *frame.Frame) bool
}

// Phase is one segment of a rate schedule.
type Phase struct {
	// Rate is the packet generation rate δ in packets/second.
	Rate float64
	// Duration is how long the phase lasts before the schedule advances
	// (cyclically). Zero means "forever".
	Duration sim.Time
}

// Source generates unicast data frames towards a sink according to a Poisson
// process whose rate follows a cyclic phase schedule.
type Source struct {
	// Kernel drives generation; required.
	Kernel *sim.Kernel
	// Rng draws inter-arrival times; required, private to this source.
	Rng *sim.Rand
	// Target receives generated frames.
	Target Enqueuer
	// Origin is the generating node, Sink the final destination and FirstHop
	// the MAC destination of the first transmission.
	Origin, Sink, FirstHop frame.NodeID
	// Phases is the cyclic rate schedule; at least one phase with Rate > 0
	// is required for any packet to be generated.
	Phases []Phase
	// StartAt delays generation (the paper starts data traffic after a 100 s
	// association period).
	StartAt sim.Time
	// MaxPackets bounds generation (the paper's "1000 data packets");
	// 0 means unbounded.
	MaxPackets int
	// MPDUBytes overrides DefaultDataMPDU when positive.
	MPDUBytes int
	// Tag classifies the generated frames for accounting.
	Tag frame.Tag
	// Seq, when non-nil, is a sequence counter shared by all sources of the
	// same origin (duplicate rejection is per origin, so two sources at one
	// node must not reuse numbers). Nil uses a private counter.
	Seq *uint32
	// OnGenerate is called for every generated frame, before it is offered
	// to the target. May be nil.
	OnGenerate func(f *frame.Frame)
	// Pool, when non-nil, supplies recycled frames (the MAC layer returns
	// them once they leave its queue for good).
	Pool *frame.Pool

	generated int
	seq       uint32
	phase     int
	phaseEnds sim.Time
}

// Generated reports how many frames this source has produced.
func (s *Source) Generated() int { return s.generated }

// Start arms the source on its kernel. Call exactly once.
func (s *Source) Start() {
	if s.Kernel == nil || s.Rng == nil || s.Target == nil {
		panic("traffic: Kernel, Rng and Target are required")
	}
	if len(s.Phases) == 0 {
		panic("traffic: at least one phase is required")
	}
	s.phase = 0
	s.phaseEnds = s.StartAt + s.Phases[0].Duration
	s.Kernel.AtCall(s.StartAt, sourceDraw, s)
}

// sourceDraw and sourceArrive are the long-lived kernel callbacks of every
// Source: a fresh inter-arrival draw (at the start and at phase
// boundaries) and a packet arrival followed by the next draw. The source
// itself is the event argument, so generating traffic allocates no
// closure.
func sourceDraw(a any) { a.(*Source).scheduleNext() }

func sourceArrive(a any) {
	s := a.(*Source)
	s.emit()
	s.scheduleNext()
}

// CurrentRate reports the rate of the active phase at the current kernel
// time (advancing the schedule as needed).
func (s *Source) CurrentRate() float64 {
	s.advancePhase()
	return s.Phases[s.phase].Rate
}

func (s *Source) advancePhase() {
	now := s.Kernel.Now()
	for s.Phases[s.phase].Duration > 0 && now >= s.phaseEnds {
		s.phase = (s.phase + 1) % len(s.Phases)
		s.phaseEnds += s.Phases[s.phase].Duration
	}
}

func (s *Source) scheduleNext() {
	if s.MaxPackets > 0 && s.generated >= s.MaxPackets {
		return
	}
	rate := s.CurrentRate()
	if rate <= 0 {
		// Idle phase: re-check at the phase boundary.
		if s.Phases[s.phase].Duration == 0 {
			return // permanently silent
		}
		s.Kernel.AtCall(s.phaseEnds, sourceDraw, s)
		return
	}
	gap := s.Rng.ExpTime(sim.Time(float64(sim.Second) / rate))
	if s.Phases[s.phase].Duration > 0 && s.Kernel.Now()+gap >= s.phaseEnds {
		// The draw crosses the phase boundary: re-draw there with the next
		// phase's rate (exact for exponential gaps, by memorylessness).
		s.Kernel.AtCall(s.phaseEnds, sourceDraw, s)
		return
	}
	s.Kernel.AtCall(s.Kernel.Now()+gap, sourceArrive, s)
}

func (s *Source) emit() {
	if s.MaxPackets > 0 && s.generated >= s.MaxPackets {
		return
	}
	s.generated++
	seq := &s.seq
	if s.Seq != nil {
		seq = s.Seq
	}
	*seq++
	mpdu := s.MPDUBytes
	if mpdu <= 0 {
		mpdu = DefaultDataMPDU
	}
	f := s.Pool.Get()
	f.Kind = frame.Data
	f.Src = s.Origin
	f.Dst = s.FirstHop
	f.Origin = s.Origin
	f.Sink = s.Sink
	f.Seq = *seq
	f.MPDUBytes = mpdu
	f.Tag = s.Tag
	f.CreatedAt = s.Kernel.Now()
	if s.OnGenerate != nil {
		s.OnGenerate(f)
	}
	if !s.Target.Enqueue(f) {
		s.Pool.Put(f)
	}
}

// BroadcastSource emits periodic one-hop broadcasts — the route-discovery
// traffic of the paper's DSME scenario (a substitute for its GPSR route
// discovery).
type BroadcastSource struct {
	// Kernel drives generation; required.
	Kernel *sim.Kernel
	// Rng jitters the period uniformly by ±Period/4, desynchronizing nodes;
	// required.
	Rng *sim.Rand
	// Target receives generated frames.
	Target Enqueuer
	// Origin is the broadcasting node.
	Origin frame.NodeID
	// Period is the mean broadcast interval; required > 0.
	Period sim.Time
	// StartAt delays the first broadcast.
	StartAt sim.Time
	// OnGenerate is called for every generated frame. May be nil.
	OnGenerate func(f *frame.Frame)
	// Pool, when non-nil, supplies recycled frames.
	Pool *frame.Pool

	generated int
	seq       uint32
}

// Generated reports how many broadcasts this source has produced.
func (b *BroadcastSource) Generated() int { return b.generated }

// Start arms the source on its kernel. Call exactly once.
func (b *BroadcastSource) Start() {
	if b.Kernel == nil || b.Rng == nil || b.Target == nil {
		panic("traffic: Kernel, Rng and Target are required")
	}
	if b.Period <= 0 {
		panic(fmt.Sprintf("traffic: broadcast period %v must be positive", b.Period))
	}
	first := b.StartAt + sim.Time(b.Rng.Float64()*float64(b.Period))
	b.Kernel.AtCall(first, broadcastTick, b)
}

// broadcastTick is the long-lived kernel callback of every BroadcastSource.
func broadcastTick(a any) { a.(*BroadcastSource).tick() }

func (b *BroadcastSource) tick() {
	b.emit()
	gap := b.Period
	if jitter := b.Period / 4; jitter > 0 {
		gap += sim.Time(b.Rng.Float64()*float64(2*jitter)) - jitter
	}
	if gap < sim.Millisecond {
		gap = sim.Millisecond
	}
	b.Kernel.AtCall(b.Kernel.Now()+gap, broadcastTick, b)
}

func (b *BroadcastSource) emit() {
	b.generated++
	b.seq++
	f := b.Pool.Get()
	f.Kind = frame.RouteDiscovery
	f.Src = b.Origin
	f.Dst = frame.Broadcast
	f.Origin = b.Origin
	f.Sink = frame.Broadcast
	f.Seq = b.seq
	f.MPDUBytes = BroadcastMPDU
	f.CreatedAt = b.Kernel.Now()
	if b.OnGenerate != nil {
		b.OnGenerate(f)
	}
	if !b.Target.Enqueue(f) {
		b.Pool.Put(f)
	}
}
