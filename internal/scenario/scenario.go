// Package scenario wires topologies, MAC engines, traffic generators and
// instrumentation into complete, reproducible simulation runs. Every
// experiment of the evaluation (and the public qma facade) builds on Run:
// given a Config and a seed it produces the per-node metrics the paper's
// figures report — PDR, end-to-end delay, queue levels, cumulative Q-values,
// exploration rates and slot utilization.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"qma/internal/barring"
	"qma/internal/core"
	"qma/internal/csma"
	"qma/internal/faults"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// Registry keys of the protocols every evaluation track compares. Further
// protocols (internal/aloha, internal/bandit, ...) are addressed by the
// constants their own packages export.
const (
	// QMA is the paper's Q-learning MAC.
	QMA mac.Name = core.ProtocolName
	// CSMAUnslotted is the unslotted CSMA/CA baseline.
	CSMAUnslotted mac.Name = csma.ProtoUnslotted
	// CSMASlotted is the slotted CSMA/CA baseline.
	CSMASlotted mac.Name = csma.ProtoSlotted
)

// TableKind selects the Q-value storage for QMA nodes.
type TableKind = core.TableKind

const (
	// TableFloat is the float64 reference table.
	TableFloat = core.TableFloat
	// TableFixed is the Q8.8 integer table (§3.2 embedded variant).
	TableFixed = core.TableFixed
	// TableQuant is the 8-bit saturating table (§7 future-work variant).
	TableQuant = core.TableQuant
)

// QMAOptions tunes the QMA engines of a scenario.
type QMAOptions = core.Options

// TrafficSpec attaches a Poisson data source to a node.
type TrafficSpec struct {
	// Origin is the generating node.
	Origin frame.NodeID
	// Phases is the cyclic rate schedule (packets/second).
	Phases []traffic.Phase
	// StartAt delays generation.
	StartAt sim.Time
	// MaxPackets bounds generation (0 = unbounded).
	MaxPackets int
	// Tag classifies the frames (evaluation vs management).
	Tag frame.Tag
	// MPDUBytes overrides the default frame size when positive.
	MPDUBytes int
}

// BroadcastSpec attaches a periodic broadcast source to a node.
type BroadcastSpec struct {
	// Origin is the broadcasting node.
	Origin frame.NodeID
	// Period is the mean broadcast interval.
	Period sim.Time
	// StartAt delays the first broadcast.
	StartAt sim.Time
}

// FadeSpec schedules a deterministic deep fade: from At until At+Duration
// every frame to or from Node is lost at delivery time (the air stays
// occupied, so the disturbance is visible to carrier sensing and learning).
type FadeSpec struct {
	Node     frame.NodeID
	At       sim.Time
	Duration sim.Time
}

// ChurnSpec schedules a node leaving (Leave true) or rejoining the network
// at the given instant. Link re-classification is incremental (O(degree)).
type ChurnSpec struct {
	Node  frame.NodeID
	At    sim.Time
	Leave bool
}

// MoveSpec schedules a waypoint position update. Moves require a
// position-based topology (*radio.PathLossTopology); the run operates on a
// private clone so the shared Network stays immutable across replications.
type MoveSpec struct {
	Node frame.NodeID
	At   sim.Time
	To   radio.Position
}

// DynamicsConfig describes the time-varying behaviour of a run. The zero
// value disables every mechanism, in which case the run is guaranteed to be
// byte-identical to a pre-dynamics build: no extra random draws, no extra
// events, identical link state.
type DynamicsConfig struct {
	// Gilbert is the per-link burst-error process (zero value = off).
	Gilbert radio.GilbertElliott
	// Fades, Churn and Moves are the scheduled disturbances, applied in
	// slice order when instants coincide.
	Fades []FadeSpec
	Churn []ChurnSpec
	Moves []MoveSpec
}

// Enabled reports whether any dynamics mechanism is configured.
func (d *DynamicsConfig) Enabled() bool {
	return d.Gilbert.Enabled() || len(d.Fades) > 0 || len(d.Churn) > 0 || len(d.Moves) > 0
}

// Config describes one run.
type Config struct {
	// Network is the topology with routing; required.
	Network *topo.Network
	// MAC selects the channel access scheme by registry key ("" = QMA).
	MAC mac.Name
	// QMA tunes QMA engines (ignored for other protocols).
	QMA QMAOptions
	// MACOptions carries protocol-specific options for non-QMA protocols
	// (e.g. csma.Options, aloha.Options, bandit.Options); nil selects the
	// protocol's defaults. When set it also overrides QMA for QMA runs.
	MACOptions any
	// CaptureThresholdDB enables receiver-side SINR capture on the medium:
	// the strongest of several overlapping frames still decodes when its
	// power clears the sum of the interferers by this many dB (0: capture
	// disabled, every overlap collides — the byte-identical default).
	// Validate rejects a negative or non-finite threshold.
	CaptureThresholdDB float64
	// Seed selects the run's random streams; replications vary it.
	Seed uint64
	// Duration is the simulated time.
	Duration sim.Time
	// Traffic are the unicast data sources.
	Traffic []TrafficSpec
	// Broadcasts are the periodic broadcast sources.
	Broadcasts []BroadcastSpec
	// SamplePeriod enables time-series sampling of cumulative Q, ρ and
	// queue levels at this period (0 disables; the figures sample once per
	// superframe, 122.88 ms).
	SamplePeriod sim.Time
	// MeasureFrom restarts queue-level averaging at this instant so warm-up
	// does not bias the Fig. 8 metric.
	MeasureFrom sim.Time
	// Dynamics configures time-varying channels and node churn (zero value:
	// static run, byte-identical to the pre-dynamics simulator).
	Dynamics DynamicsConfig
	// Faults is the deterministic infrastructure fault script — sink
	// outages, node reboots, ACK corruption, beacon loss (zero value: no
	// faults, byte-identical to a fault-free build).
	Faults faults.Schedule
	// Barring configures sink-side load-adaptive access-class barring: once
	// per beacon interval the sink observes the medium's congestion and
	// broadcasts a barring factor p with the (implicit) beacon; nodes gate
	// fresh channel-access attempts on a Bernoulli(p) draw. The zero value
	// disables barring entirely — no extra random streams, no extra events,
	// byte-identical to a pre-barring build.
	Barring barring.Config
	// DropPolicy selects how a full transmit queue makes room for an
	// arriving frame: tail-drop (zero value, reject the arrival — the
	// pre-backpressure behaviour), drop-oldest, or deadline-drop. See
	// mac.DropPolicy.
	DropPolicy mac.DropPolicy
	// DropDeadline is the residence deadline for mac.DeadlineDrop (0 selects
	// 16 superframes).
	DropDeadline sim.Time
	// EventBudget truncates the run after this many kernel events when
	// positive and marks Result.Truncated. Replicated sweeps use it to bound
	// runaway runs.
	EventBudget uint64
	// SummaryOnly skips materializing the per-node NodeResult slice: the run
	// accumulates only network-wide totals (generated, delivered, delay sum)
	// into Result.Summary, so result memory is O(1) instead of O(N) — the
	// mMTC scale-out path, where N reaches 100k–1M per run. Per-node
	// observations remain available through the OnEvalGenerate/OnEvalDeliver
	// hooks. Incompatible with SamplePeriod (per-node series need per-node
	// results).
	SummaryOnly bool
	// InvariantChecks enables the runtime self-checks of the kernel, the
	// medium and the frame pool for this run (tests and fuzz harnesses).
	InvariantChecks bool
	// OnEvalGenerate and OnEvalDeliver observe evaluation traffic as it is
	// generated and as it reaches the sink — the dynamics experiments use
	// them to compute windowed PDR and post-disturbance recovery times.
	// Either may be nil.
	OnEvalGenerate func(origin frame.NodeID, at sim.Time)
	OnEvalDeliver  func(origin frame.NodeID, createdAt, at sim.Time)
}

// Validate reports the first configuration problem, or nil. It holds every
// rule about a run: build panics with its error, and the public qma facade
// returns it after converting its own input, so no rule is written twice.
func (cfg *Config) Validate() error {
	switch {
	case cfg.Network == nil:
		return errors.New("network topology is required")
	case cfg.Duration <= 0:
		return fmt.Errorf("duration %v must be positive", cfg.Duration)
	case cfg.SummaryOnly && cfg.SamplePeriod > 0:
		return errors.New("SummaryOnly is incompatible with sampled series (per-node series need per-node results)")
	case cfg.DropDeadline < 0:
		return fmt.Errorf("drop deadline %v must not be negative", cfg.DropDeadline)
	case !(cfg.CaptureThresholdDB >= 0 && cfg.CaptureThresholdDB <= math.MaxFloat64):
		return fmt.Errorf("capture threshold %g dB must be finite and non-negative (0 disables capture)", cfg.CaptureThresholdDB)
	}
	net := cfg.Network
	n := net.NumNodes()
	for _, tr := range cfg.Traffic {
		switch {
		case tr.Origin < 0 || int(tr.Origin) >= n:
			return fmt.Errorf("traffic origin %d out of range [0,%d)", tr.Origin, n)
		case len(tr.Phases) == 0:
			return fmt.Errorf("traffic at node %d has no phases", tr.Origin)
		case tr.Origin == net.Sink:
			return fmt.Errorf("traffic origin %d is the sink", tr.Origin)
		case tr.StartAt < 0:
			return fmt.Errorf("traffic at node %d starts in the past", tr.Origin)
		}
		for _, p := range tr.Phases {
			switch {
			case !(p.Rate >= 0 && p.Rate <= math.MaxFloat64):
				return fmt.Errorf("traffic at node %d: phase rate %g must be finite and non-negative", tr.Origin, p.Rate)
			case p.Duration < 0:
				return fmt.Errorf("traffic at node %d: phase duration %v must not be negative", tr.Origin, p.Duration)
			}
		}
		if _, ok := net.NextHop(tr.Origin, net.Sink); !ok {
			return fmt.Errorf("traffic origin %d has no route to the sink", tr.Origin)
		}
	}
	for _, b := range cfg.Broadcasts {
		if b.Origin < 0 || int(b.Origin) >= n {
			return fmt.Errorf("broadcast origin %d out of range [0,%d)", b.Origin, n)
		}
		if b.Period <= 0 {
			return fmt.Errorf("broadcast at node %d needs a positive period", b.Origin)
		}
		if b.StartAt < 0 {
			return fmt.Errorf("broadcast at node %d starts in the past", b.Origin)
		}
	}
	if err := cfg.Dynamics.validate(net.Topology); err != nil {
		return err
	}
	if err := cfg.Faults.Validate(n); err != nil {
		return err
	}
	if err := cfg.Barring.Validate(); err != nil {
		return err
	}
	p, opts, err := ResolveMAC(cfg.MAC, cfg.QMA, cfg.MACOptions)
	if err != nil {
		return err
	}
	return p.ValidateOptions(opts)
}

// validate checks the scheduled disturbances against the topology. The
// Gilbert–Elliott messages name the public qma fields, which is where users
// set the sojourn times.
func (d *DynamicsConfig) validate(t radio.Topology) error {
	g := d.Gilbert
	switch {
	case g.MeanGood < 0 || g.MeanBad < 0:
		return errors.New("Gilbert–Elliott sojourn times must not be negative")
	case (g.MeanGood > 0) != (g.MeanBad > 0):
		return errors.New("Gilbert–Elliott needs both MeanGoodSeconds and MeanBadSeconds (or neither)")
	case !(g.LossGood >= 0 && g.LossGood <= 1 && g.LossBad >= 0 && g.LossBad <= 1):
		return errors.New("Gilbert–Elliott loss probabilities must lie in [0,1]")
	}
	n := t.NumNodes()
	for _, f := range d.Fades {
		switch {
		case f.Node < 0 || int(f.Node) >= n:
			return fmt.Errorf("fade node %d out of range [0,%d)", f.Node, n)
		case f.At < 0:
			return fmt.Errorf("fade at node %d scheduled in the past", f.Node)
		case f.Duration <= 0:
			return fmt.Errorf("fade at node %d needs a positive duration", f.Node)
		}
	}
	for _, c := range d.Churn {
		switch {
		case c.Node < 0 || int(c.Node) >= n:
			return fmt.Errorf("churn node %d out of range [0,%d)", c.Node, n)
		case c.At < 0:
			return fmt.Errorf("churn at node %d scheduled in the past", c.Node)
		}
	}
	if _, ok := t.(*radio.PathLossTopology); len(d.Moves) > 0 && !ok {
		return errors.New("Dynamics.Moves require a position-based topology (Star17, FactoryHall)")
	}
	for _, m := range d.Moves {
		switch {
		case m.Node < 0 || int(m.Node) >= n:
			return fmt.Errorf("move node %d out of range [0,%d)", m.Node, n)
		case m.At < 0:
			return fmt.Errorf("move at node %d scheduled in the past", m.Node)
		}
	}
	return nil
}

// ResolveMAC looks up the run's protocol ("" selects QMA) and the options
// its engines are built with: opts when set, else qmaOpts for QMA runs and
// the protocol's defaults (nil) for everyone else. The DSME scenario shares
// it, so both evaluation tracks resolve protocols alike.
func ResolveMAC(kind mac.Name, qmaOpts QMAOptions, opts any) (*mac.Protocol, any, error) {
	if kind == "" {
		kind = QMA
	}
	p, ok := mac.Lookup(string(kind))
	if !ok {
		return nil, nil, fmt.Errorf("unknown MAC protocol %q (registered: %s)", kind, mac.RegisteredList())
	}
	if opts == nil && p.Name == string(QMA) {
		opts = qmaOpts
	}
	return p, opts, nil
}

// NodeResult carries everything measured at one node.
type NodeResult struct {
	// ID is the dense node id, Label the paper's name for it.
	ID    frame.NodeID
	Label string
	// Summary holds this origin's evaluation totals: packets generated
	// here, those accepted at their sink and their end-to-end delay sum.
	Summary
	// AvgQueueLevel is the time-averaged transmit-queue occupancy since
	// MeasureFrom (Fig. 8).
	AvgQueueLevel float64
	// MAC are the shared MAC counters, Radio the medium-level counters.
	MAC   mac.Stats
	Radio radio.NodeStats
	// PowerAirtime is the node's TX airtime broken down by power level
	// (reference-power remainder first). Nil unless some node of the run
	// transmitted at reduced power (see radio.Medium.TxAirtimeByPower).
	PowerAirtime []radio.PowerAirtime
	// Q-learning nodes only (QMA and NOMA, both core.Engine): engine
	// counters, the final policy as one action kind per subslot
	// (Engine.PolicyKinds) and sampled series (nil/empty for the other MACs
	// or when sampling is off).
	Engine core.Stats
	Policy []int
	// TableBytes is the Q-table's value-storage footprint in bytes — the
	// §3.2 resource figure for the selected representation (0 for CSMA
	// nodes, which hold no table).
	TableBytes  int
	CumQ        *stats.Series
	Rho         *stats.Series
	QueueSeries *stats.Series
}

// Summary is a delivery tally of evaluation traffic: one origin's, one
// cell's, or a whole network's.
type Summary struct {
	// Generated counts evaluation packets originated; Delivered counts
	// those accepted at their sink; DelaySum accumulates the delivered
	// packets' end-to-end delays.
	Generated uint64
	Delivered uint64
	DelaySum  sim.Time
}

// add folds o into s.
func (s *Summary) add(o *Summary) {
	s.Generated += o.Generated
	s.Delivered += o.Delivered
	s.DelaySum += o.DelaySum
}

// PDR reports Delivered/Generated (1 when nothing was generated).
func (s Summary) PDR() float64 {
	if s.Generated == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Generated)
}

// MeanDelay reports the mean end-to-end delay of the delivered packets in
// seconds (0 when none was delivered).
func (s Summary) MeanDelay() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return (sim.Time(float64(s.DelaySum) / float64(s.Delivered))).Seconds()
}

// Result is the outcome of one run.
type Result struct {
	// Nodes holds one entry per node, indexed by dense id (nil for
	// SummaryOnly runs).
	Nodes []NodeResult
	// Summary holds the network-wide totals of a SummaryOnly run (nil
	// otherwise — the totals then live in Nodes).
	Summary *Summary
	// Clock is the superframe clock the run used.
	Clock *superframe.Clock
	// Duration is the simulated time actually run.
	Duration sim.Time
	// Events is the number of kernel events the run processed — the
	// denominator for events/second throughput reporting.
	Events uint64
	// Truncated reports that the run was cut short by Config.EventBudget
	// before reaching Duration.
	Truncated bool
}

// total folds the run's evaluation tallies into one network-wide Summary.
func (r *Result) total() Summary {
	var t Summary
	if r.Summary != nil {
		t = *r.Summary
	}
	for i := range r.Nodes {
		t.add(&r.Nodes[i].Summary)
	}
	return t
}

// NetworkPDR reports total delivered / total generated evaluation packets
// across all origins (the headline Fig. 7 metric).
func (r *Result) NetworkPDR() float64 {
	return r.total().PDR()
}

// MeanDelay reports the mean end-to-end delay over all delivered evaluation
// packets, in seconds (Fig. 9).
func (r *Result) MeanDelay() float64 {
	return r.total().MeanDelay()
}

// MeanQueueLevel reports the mean of the per-origin average queue levels for
// the given nodes (Fig. 8 plots nodes A and C).
func (r *Result) MeanQueueLevel(ids ...frame.NodeID) float64 {
	if len(ids) == 0 {
		for i := range r.Nodes {
			ids = append(ids, frame.NodeID(i))
		}
	}
	var sum float64
	for _, id := range ids {
		sum += r.Nodes[id].AvgQueueLevel
	}
	return sum / float64(len(ids))
}

// run holds the live objects during a simulation.
type run struct {
	*Substrate
	cfg     Config
	proto   *mac.Protocol
	macOpts any // resolved protocol options, validated once per run
	engines []mac.Engine
	qma     []*core.Engine // nil entries for non-Q-learning MACs
	result  *Result
}

// Run executes the scenario and returns its metrics. It panics with the
// Config.Validate error on configuration errors (scenario assembly is
// programmer-controlled) but never on simulation behaviour. Once the metrics
// are collected, the run's storage goes to the next run to recycle.
func Run(cfg Config) *Result {
	r := build(cfg)
	r.Kernel.Run(cfg.Duration)
	r.collect()
	r.Release()
	return r.result
}

// Output bundles a Result with the live engines for post-run inspection
// (per-engine counters, Q-tables).
type Output struct {
	*Result
	Engines []mac.Engine
}

// RunWithEngines is Run, additionally exposing the engines. It keeps the
// run's storage, because the engines' Q-tables and queues live on in it.
func RunWithEngines(cfg Config) *Output {
	r := build(cfg)
	r.Kernel.Run(cfg.Duration)
	r.collect()
	return &Output{Result: r.result, Engines: r.engines}
}

// build assembles kernel, medium, engines, traffic and instrumentation.
func build(cfg Config) *run {
	if err := cfg.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	proto, macOpts, _ := ResolveMAC(cfg.MAC, cfg.QMA, cfg.MACOptions)
	sub := NewSubstrate(&cfg)
	n := cfg.Network.NumNodes()
	result := &Result{Clock: sub.Clock, Duration: cfg.Duration}
	if cfg.SummaryOnly {
		result.Summary = &Summary{}
	} else {
		result.Nodes = make([]NodeResult, n)
	}
	r := &run{
		Substrate: sub,
		cfg:       cfg,
		proto:     proto,
		macOpts:   macOpts,
		engines:   make([]mac.Engine, n),
		qma:       make([]*core.Engine, n),
		result:    result,
	}

	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		if !cfg.SummaryOnly {
			r.result.Nodes[i] = NodeResult{ID: id, Label: cfg.Network.Label(id)}
		}
		r.engines[i] = r.buildEngine(id)
		r.Medium.Attach(id, r.engines[i])
	}
	for i := range r.engines {
		r.engines[i].Start()
	}
	if cfg.Faults.Enabled() {
		armFaults(r.Kernel, r.Clock, r.engines, cfg.Faults)
	}
	r.ArmBarring(r.engines)
	if cfg.MeasureFrom > 0 {
		r.Kernel.At(cfg.MeasureFrom, func() {
			for _, e := range r.engines {
				e.Base().ResetQueueIntegral()
			}
		})
	}
	r.buildTraffic()
	if cfg.SamplePeriod > 0 {
		r.armSampler()
	}
	return r
}

// armFaults schedules the deterministic fault script on the kernel. Nodes
// are addressed through their shared mac.Base; reboots go through
// mac.Engine.Reboot, which wipes the engine's own protocol state on top of
// the Base's. Beacon
// semantics: beacons are implicit in this simulator — every node
// synchronizes through the shared superframe clock, with a notional beacon
// at each superframe start — so losing beacons becomes a channel-access
// suspension over the beacon-aligned window faults.SuspendWindow derives.
func armFaults(kernel *sim.Kernel, clock *superframe.Clock, engines []mac.Engine, s faults.Schedule) {
	sfd := clock.Config().SuperframeDuration()
	for _, o := range s.Outages {
		o := o
		end := o.At + o.Duration
		kernel.At(o.At, func() { engines[o.Node].Base().SetDownUntil(end) })
		if !o.StopBeacons {
			continue
		}
		// The outage node was the beacon source: every other node misses all
		// beacons of the window and suspends channel access until resync.
		from, until, ok := faults.SuspendWindow(sfd, o.At, o.Duration)
		if !ok {
			continue
		}
		for i := range engines {
			if i == o.Node {
				continue
			}
			b := engines[i].Base()
			kernel.At(from, func() { b.SetDesyncUntil(until) })
		}
	}
	for _, rb := range s.Reboots {
		kernel.At(rb.At, engines[rb.Node].Reboot)
	}
	for _, w := range s.AckCorruption {
		w := w
		end := w.At + w.Duration
		kernel.At(w.At, func() {
			for _, e := range engines {
				e.Base().CorruptAcksUntil(end)
			}
		})
	}
	for _, bl := range s.BeaconLoss {
		from, until, ok := faults.SuspendWindow(sfd, bl.At, bl.Duration)
		if !ok {
			continue
		}
		b := engines[bl.Node].Base()
		kernel.At(from, func() { b.SetDesyncUntil(until) })
	}
}

func (r *run) macConfig(id frame.NodeID) mac.Config {
	cfg := r.MACConfig(id)
	cfg.MaxRetries = mac.DefaultMaxRetries
	cfg.Router = r.cfg.Network
	cfg.Drop = r.cfg.DropPolicy
	cfg.DropDeadline = r.cfg.DropDeadline
	cfg.OnSinkDeliver = func(f *frame.Frame) {
		if f.Tag != frame.TagEval || f.Kind != frame.Data {
			return
		}
		if s := r.result.Summary; s != nil {
			s.Delivered++
			s.DelaySum += r.Kernel.Now() - f.CreatedAt
		} else {
			origin := &r.result.Nodes[f.Origin]
			origin.Delivered++
			origin.DelaySum += r.Kernel.Now() - f.CreatedAt
		}
		if r.cfg.OnEvalDeliver != nil {
			r.cfg.OnEvalDeliver(f.Origin, f.CreatedAt, r.Kernel.Now())
		}
	}
	return cfg
}

func (r *run) buildEngine(id frame.NodeID) mac.Engine {
	e := r.proto.New(r.macConfig(id), r.macOpts, sim.NewRandStream(r.cfg.Seed, uint64(id)))
	if q, ok := e.(*core.Engine); ok {
		r.qma[id] = q
	}
	return e
}

func (r *run) buildTraffic() {
	seqs := make(map[frame.NodeID]*uint32)
	for _, spec := range r.cfg.Traffic {
		spec := spec
		if seqs[spec.Origin] == nil {
			seqs[spec.Origin] = new(uint32)
		}
		firstHop, _ := r.cfg.Network.NextHop(spec.Origin, r.cfg.Network.Sink) // Validate checked the route
		var node *NodeResult
		if r.result.Summary == nil {
			node = &r.result.Nodes[spec.Origin]
		}
		src := &traffic.Source{
			Kernel:     r.Kernel,
			Rng:        sim.NewRandStream(r.cfg.Seed, StreamTraffic+uint64(spec.Origin)+uint64(spec.Tag)*500),
			Target:     r.engines[spec.Origin],
			Origin:     spec.Origin,
			Sink:       r.cfg.Network.Sink,
			FirstHop:   firstHop,
			Phases:     spec.Phases,
			StartAt:    spec.StartAt,
			MaxPackets: spec.MaxPackets,
			MPDUBytes:  spec.MPDUBytes,
			Tag:        spec.Tag,
			Seq:        seqs[spec.Origin],
			Pool:       r.Pool,
			OnGenerate: func(f *frame.Frame) {
				if f.Tag == frame.TagEval {
					if node != nil {
						node.Generated++
					} else {
						r.result.Summary.Generated++
					}
					if r.cfg.OnEvalGenerate != nil {
						r.cfg.OnEvalGenerate(f.Origin, r.Kernel.Now())
					}
				}
			},
		}
		src.Start()
	}
	for _, spec := range r.cfg.Broadcasts {
		b := &traffic.BroadcastSource{
			Kernel:  r.Kernel,
			Rng:     sim.NewRandStream(r.cfg.Seed, StreamBroadcast+uint64(spec.Origin)),
			Target:  r.engines[spec.Origin],
			Origin:  spec.Origin,
			Period:  spec.Period,
			StartAt: spec.StartAt,
			Pool:    r.Pool,
		}
		b.Start()
	}
}

func (r *run) armSampler() {
	for i := range r.result.Nodes {
		node := &r.result.Nodes[i]
		node.QueueSeries = &stats.Series{}
		if r.qma[i] != nil {
			node.CumQ = &stats.Series{}
			node.Rho = &stats.Series{}
		}
	}
	r.Kernel.AtCall(r.Kernel.Now()+r.cfg.SamplePeriod, runSample, r)
}

// runSample is the sampler's static kernel callback: it records one sample
// per node and re-arms itself one SamplePeriod later.
func runSample(a any) {
	r := a.(*run)
	now := r.Kernel.Now().Seconds()
	for i, e := range r.engines {
		node := &r.result.Nodes[i]
		node.QueueSeries.Add(now, float64(e.Base().Queue().Len()))
		if q := r.qma[i]; q != nil {
			node.CumQ.Add(now, q.CumulativePolicyQ())
			rho, _ := q.TakeRhoSample()
			node.Rho.Add(now, rho)
		}
	}
	r.Kernel.AtCall(r.Kernel.Now()+r.cfg.SamplePeriod, runSample, r)
}

// collect copies the end-of-run counters into the result. SummaryOnly runs
// collect nothing per node — their totals accumulated during the run.
func (r *run) collect() {
	r.result.Events = r.Kernel.Processed()
	r.result.Truncated = r.Kernel.BudgetExhausted()
	if r.result.Summary != nil {
		return
	}
	for i, e := range r.engines {
		node := &r.result.Nodes[i]
		node.MAC = e.Base().Stats()
		node.Radio = r.Medium.Stats(frame.NodeID(i))
		node.PowerAirtime = r.Medium.TxAirtimeByPower(frame.NodeID(i))
		node.AvgQueueLevel = e.Base().AvgQueueLevel()
		if q := r.qma[i]; q != nil {
			node.Engine = q.EngineStats()
			node.Policy = q.PolicyKinds()
			node.TableBytes = q.Learner().Table().MemoryBytes()
		}
	}
}
