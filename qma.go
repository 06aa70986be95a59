// Package qma is a library implementation of QMA, the Q-learning-based
// multiple access scheme for the industrial IoT of Meyer & Turau (ICDCS
// 2021, arXiv:2101.04003), together with everything needed to reproduce the
// paper's evaluation: a deterministic discrete event simulator, an IEEE
// 802.15.4 DSME superframe/GTS substrate, slotted and unslotted CSMA/CA
// baselines, the paper's topologies and traffic models, and an experiment
// harness that regenerates every figure of the paper.
//
// Two levels of API are exposed:
//
//   - Scenario-level: describe a network, a channel access scheme and
//     traffic, call Scenario.Run, and read packet delivery ratios, delays,
//     queue levels and learned policies (see examples/quickstart).
//
//   - Learner-level: the cooperative multi-agent Q-learning core (Learner)
//     with the paper's Eq. 5 update rule, policy table and exploration
//     strategies, for embedding into other systems (see examples/learner).
//
// All randomness derives from explicit seeds; every run is bit-for-bit
// reproducible.
package qma

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"qma/internal/aloha"
	"qma/internal/bandit"
	"qma/internal/barring"
	"qma/internal/core"
	"qma/internal/csma"
	"qma/internal/faults"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/noma"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// MAC selects a channel access scheme by its protocol registry key. The
// zero value selects QMA. Use the exported constants, or ParseMAC to resolve
// CLI-style names and aliases; Scenario.Validate rejects unregistered keys
// with ErrUnknownMAC.
type MAC string

const (
	// QMA is the paper's Q-learning MAC.
	QMA MAC = core.ProtocolName
	// CSMAUnslotted is unslotted IEEE 802.15.4 CSMA/CA.
	CSMAUnslotted MAC = csma.ProtoUnslotted
	// CSMASlotted is slotted IEEE 802.15.4 CSMA/CA (CW=2).
	CSMASlotted MAC = csma.ProtoSlotted
	// Aloha is pure ALOHA: transmit immediately, no carrier sensing.
	Aloha MAC = aloha.ProtoPure
	// SlottedAloha is ALOHA aligned to the CAP subslot grid.
	SlottedAloha MAC = aloha.ProtoSlotted
	// Bandit is the per-subslot multi-armed-bandit learning baseline.
	Bandit MAC = bandit.Proto
	// NOMA is the power-level Q-learning MAC: QMA's engine with its action
	// space crossed with K transmit power levels, designed for
	// capture-enabled runs (Scenario.CaptureThresholdDB > 0) where two
	// deliberate power levels can share a subslot.
	NOMA MAC = noma.Proto
)

// ErrUnknownMAC reports a MAC value naming no registered protocol.
var ErrUnknownMAC = errors.New("qma: unknown MAC protocol")

// String implements fmt.Stringer with the protocol's display name.
func (m MAC) String() string { return m.kind().String() }

func (m MAC) kind() mac.Name {
	if m == "" {
		return scenario.QMA
	}
	return mac.Name(m)
}

// protocol resolves m against the protocol registry ("" selects QMA),
// reporting unregistered keys as ErrUnknownMAC.
func (m MAC) protocol() (*mac.Protocol, error) {
	p, ok := mac.Lookup(string(m.kind()))
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownMAC, string(m), mac.RegisteredList())
	}
	return p, nil
}

// MACs lists the registered channel access protocols by canonical key.
func MACs() []MAC {
	names := mac.Names()
	out := make([]MAC, len(names))
	for i, n := range names {
		out[i] = MAC(n)
	}
	return out
}

// ParseMAC resolves a canonical protocol key or a registered alias
// ("unslotted", "slotted", ...) to its canonical MAC value. The empty
// string resolves to QMA, mirroring the zero value of the MAC type.
func ParseMAC(s string) (MAC, error) {
	p, err := MAC(s).protocol()
	if err != nil {
		return "", err
	}
	return MAC(p.Name), nil
}

// TableKind selects the Q-value representation for QMA nodes.
type TableKind int

const (
	// TableFloat is the float64 reference table.
	TableFloat TableKind = iota
	// TableFixed is the Q8.8 integer table for devices without an FPU
	// (paper §3.2).
	TableFixed
	// TableQuant is the saturating 8-bit table (paper §7 future work).
	TableQuant
)

// internal converts k to the engine's table kind. The range check guards
// the narrowing to the 8-bit core.TableKind, which would wrap e.g. 256 onto
// TableFloat.
func (k TableKind) internal() (core.TableKind, error) {
	if k < TableFloat || k > TableQuant {
		return 0, fmt.Errorf("qma: unknown table kind %d", k)
	}
	return core.TableKind(k), nil
}

// LearnParams are the Q-learning hyperparameters (paper Eq. 5). The zero
// value selects the paper's α=0.5, γ=0.9, ξ=2, Q₀=−10.
type LearnParams struct {
	// Alpha is the learning rate α.
	Alpha float64
	// Gamma is the discount factor γ.
	Gamma float64
	// Xi is the stochastic-environment penalty ξ.
	Xi float64
	// InitQ is the initial Q-value (must undercut the largest punishment).
	InitQ float64
}

func (p LearnParams) internal() qlearn.Params {
	if p == (LearnParams{}) {
		return qlearn.DefaultParams()
	}
	return qlearn.Params{Alpha: p.Alpha, Gamma: p.Gamma, Xi: p.Xi, InitQ: p.InitQ}
}

// Explorer selects an exploration strategy (paper §4.2).
type Explorer struct {
	// Kind is "parameter" (default, the paper's queue-difference table),
	// "epsilon" (decaying ε-greedy) or "constant".
	Kind string
	// Eps0 is the initial ε for "epsilon" or the fixed rate for "constant".
	Eps0 float64
	// HalfLifeSeconds is ε's half-life for "epsilon" (0 = no decay).
	HalfLifeSeconds float64
	// Min is the ε floor for "epsilon".
	Min float64
}

func (e *Explorer) internal() (qlearn.Explorer, error) {
	if e == nil {
		return nil, nil // engine default: parameter-based
	}
	switch e.Kind {
	case "", "parameter":
		return qlearn.DefaultExplorer(), nil
	case "epsilon":
		return &qlearn.EpsilonGreedy{Eps0: e.Eps0, HalfLife: sim.FromSeconds(e.HalfLifeSeconds), Min: e.Min}, nil
	case "constant":
		return qlearn.Constant{Eps: e.Eps0}, nil
	default:
		return nil, fmt.Errorf("qma: unknown explorer kind %q", e.Kind)
	}
}

// Phase is one segment of a cyclic traffic-rate schedule.
type Phase struct {
	// Rate is the Poisson packet generation rate in packets/second.
	Rate float64
	// Seconds is the phase duration (0 = forever).
	Seconds float64
}

// Traffic attaches a Poisson data source to a node; packets travel to the
// topology's sink along its routing tree.
type Traffic struct {
	// Origin is the generating node id.
	Origin int
	// Phases is the cyclic rate schedule.
	Phases []Phase
	// StartSeconds delays generation.
	StartSeconds float64
	// MaxPackets bounds generation (0 = unbounded).
	MaxPackets int
	// Management marks the source as background traffic excluded from PDR
	// and delay statistics.
	Management bool
	// FrameBytes overrides the default 80-byte MPDU.
	FrameBytes int
}

// Broadcast attaches a periodic one-hop broadcast source (e.g. route
// discovery hellos).
type Broadcast struct {
	// Origin is the broadcasting node id.
	Origin int
	// PeriodSeconds is the mean interval.
	PeriodSeconds float64
	// StartSeconds delays the first broadcast.
	StartSeconds float64
}

// Scenario describes one contention-MAC simulation (the paper's §6.1/§6.2
// setups). The zero value is not runnable: Topology, DurationSeconds and at
// least one Traffic entry are required.
type Scenario struct {
	// Topology is the network under test.
	Topology *Topology
	// MAC selects the channel access scheme.
	MAC MAC
	// Learn tunes QMA's Q-learning (zero value = paper defaults).
	Learn LearnParams
	// Table selects QMA's Q-value representation.
	Table TableKind
	// Explorer overrides the exploration strategy (nil = parameter-based).
	// Protocols that reuse the shared exploration plumbing (QMA, Bandit,
	// NOMA) adopt it through the registry; everyone else ignores it.
	Explorer *Explorer
	// StartupSubslots is the cautious-startup window Δ (0 = default,
	// negative = disabled).
	StartupSubslots int
	// MACOptions carries protocol-specific options as key=value pairs
	// (the qma-sim -mac-opt surface), resolved and validated through the
	// protocol registry — e.g. {"minbe": "2"} for CSMA/CA or
	// {"levels": "3", "step": "6"} for NOMA. When set for a QMA run it
	// replaces the Learn/Table/StartupSubslots convenience fields.
	MACOptions map[string]string
	// CaptureThresholdDB enables receiver-side SINR capture: the strongest
	// of several overlapping frames still decodes when its received power
	// exceeds the sum of the interferers by this many dB. 0 (the default)
	// disables capture; overlaps then collide exactly as before.
	CaptureThresholdDB float64
	// Seed selects the random streams; vary it across replications.
	Seed uint64
	// DurationSeconds is the simulated time.
	DurationSeconds float64
	// Traffic and Broadcasts define the offered load.
	Traffic    []Traffic
	Broadcasts []Broadcast
	// SampleSeries enables per-superframe sampling of cumulative Q-values,
	// exploration rates and queue levels.
	SampleSeries bool
	// SummaryOnly skips the per-node NodeResult slice: the run accumulates
	// network-wide totals only, so result memory is O(1) in the node count.
	// Result.Nodes stays nil; the network-level metrics (NetworkPDR,
	// MeanDelaySeconds, Events) are unaffected. Incompatible with
	// SampleSeries.
	SummaryOnly bool
	// MeasureFromSeconds restarts queue averaging at this instant.
	MeasureFromSeconds float64
	// Dynamics enables time-varying channels and node churn (nil = static).
	Dynamics *Dynamics
	// Faults enables deterministic infrastructure faults — sink outages,
	// node reboots, ACK corruption, beacon loss (nil = fault-free).
	Faults *Faults
	// Barring enables sink-side load-adaptive access-class barring: the sink
	// observes congestion once per beacon interval and broadcasts a barring
	// factor p; nodes gate fresh channel-access attempts on a Bernoulli(p)
	// draw (nil = no barring, byte-identical to earlier builds).
	Barring *Barring
	// DropPolicy selects the full-queue backpressure policy: "" or "tail"
	// (reject arrivals — the default), "oldest" (evict the oldest queued
	// frame) or "deadline" (evict frames older than DropDeadlineSeconds).
	DropPolicy string
	// DropDeadlineSeconds is the queue-residence deadline for the "deadline"
	// drop policy (0 selects 16 superframes ≈ 2 s).
	DropDeadlineSeconds float64
}

// Barring configures sink-side load-adaptive access-class barring (LTE
// access-class-barring style, driven by the congestion the sink observes on
// the medium). A nil (or zero-valued) Barring leaves the simulator on its
// barring-free code paths, byte-identical to earlier builds.
type Barring struct {
	// Policy selects the controller: "fixed" (constant factor P), "aimd"
	// (halve on congestion, open additively when healthy) or "pid"
	// (velocity-form PI on the collision ratio).
	Policy string
	// P is the fixed policy's barring factor and every policy's initial
	// factor (0 selects fully open, 1).
	P float64
	// Target is the collision-ratio setpoint for aimd/pid (0 selects 0.1).
	Target float64
	// MinP floors the adaptive policies' barring factor (0 selects 0.05).
	MinP float64
	// IntervalSeconds is the beacon/observation interval (0 selects one
	// superframe, 122.88 ms).
	IntervalSeconds float64
	// BackoffSeconds is the base wait of a barred node before redrawing
	// (0 selects one superframe); repeated barring escalates it
	// exponentially.
	BackoffSeconds float64
}

// internal converts the public barring block to the internal config.
func (b *Barring) internal() barring.Config {
	if b == nil {
		return barring.Config{}
	}
	return barring.Config{
		Policy:   barring.Policy(b.Policy),
		P:        b.P,
		Target:   b.Target,
		MinP:     b.MinP,
		Interval: sim.FromSeconds(b.IntervalSeconds),
		Backoff:  sim.FromSeconds(b.BackoffSeconds),
	}
}

// GilbertElliott parameterizes the per-link two-state burst-error channel
// (good/bad states with exponential sojourn times and per-state frame loss
// probabilities). Both mean sojourn times must be positive to enable the
// process; the per-link state is sampled lazily at frame crossings, so the
// cost is O(active links).
type GilbertElliott struct {
	// MeanGoodSeconds and MeanBadSeconds are the mean sojourn times.
	MeanGoodSeconds, MeanBadSeconds float64
	// LossGood and LossBad are the per-frame loss probabilities in each
	// state (typically LossGood ≈ 0 and LossBad near 1).
	LossGood, LossBad float64
}

// Fade schedules a deterministic deep fade at a node: during the window
// every frame to or from the node is lost while the air stays occupied —
// the standard controlled disturbance for recovery-time measurements.
type Fade struct {
	Node                  int
	AtSeconds, ForSeconds float64
}

// Churn schedules a node leaving or rejoining the network.
type Churn struct {
	Node      int
	AtSeconds float64
	Leave     bool
}

// Move schedules a waypoint position update. Moves require a position-based
// topology (Star17, FactoryHall); the run operates on a private copy of the
// positions.
type Move struct {
	Node      int
	AtSeconds float64
	X, Y      float64
}

// Dynamics configures time-varying link dynamics and node churn. A nil (or
// zero-valued) Dynamics leaves the simulator on its static code paths, with
// results byte-identical to runs predating the dynamics subsystem.
type Dynamics struct {
	// Channel is the Gilbert–Elliott burst-error process (zero = off).
	Channel GilbertElliott
	// Fades, Churn and Moves are scheduled disturbances.
	Fades []Fade
	Churn []Churn
	Moves []Move
}

// Outage takes one node completely off the network for the window: it
// neither receives nor acknowledges and its transmissions never reach the
// air. With StopBeacons the node is treated as the beacon source, so every
// other node additionally loses superframe synchronization for the
// beacon-aligned part of the window and suspends channel access.
type Outage struct {
	Node                  int
	AtSeconds, ForSeconds float64
	StopBeacons           bool
}

// RebootEvent power-cycles one node: volatile MAC and learning state
// (Q-tables, backoff, bandit estimates, queue, neighbour table) is wiped and
// the node re-enters its cautious startup phase.
type RebootEvent struct {
	Node      int
	AtSeconds float64
}

// AckCorruption corrupts every acknowledgement frame on the air during the
// window: data still gets through but transmitters see timeouts and retry —
// the classic asymmetric-failure mode.
type AckCorruption struct {
	AtSeconds, ForSeconds float64
}

// BeaconLoss makes one node miss every beacon inside the window while the
// rest of the network stays synchronized; the node suspends channel access
// until it hears a beacon again.
type BeaconLoss struct {
	Node                  int
	AtSeconds, ForSeconds float64
}

// Faults is a deterministic fault script (paper's robustness regime: what
// does a learned schedule cost when infrastructure fails?). A nil (or
// zero-valued) Faults leaves the simulator on its fault-free code paths,
// with results byte-identical to runs predating the fault subsystem.
type Faults struct {
	Outages       []Outage
	Reboots       []RebootEvent
	AckCorruption []AckCorruption
	BeaconLoss    []BeaconLoss
}

// Point is one time series sample (seconds, value).
type Point struct{ T, V float64 }

// NodeResult reports one node's metrics after a run.
type NodeResult struct {
	// ID is the node id, Label the topology's display name for it.
	ID    int
	Label string
	// Generated and Delivered count this origin's evaluation packets;
	// PDR is their ratio and MeanDelaySeconds the mean end-to-end delay.
	Generated, Delivered uint64
	PDR                  float64
	MeanDelaySeconds     float64
	// AvgQueueLevel is the time-averaged transmit queue occupancy.
	AvgQueueLevel float64
	// TxAttempts, TxSuccess, TxFail, RetryDrops and QueueDrops are MAC
	// counters.
	TxAttempts, TxSuccess, TxFail, RetryDrops, QueueDrops uint64
	// Barred counts channel-access attempts deferred by access-class
	// barring; DeadlineDrops counts frames evicted by the "deadline" drop
	// policy. Both stay 0 unless the corresponding feature is enabled.
	Barred, DeadlineDrops uint64
	// Captured counts receptions at this node that were delivered although
	// another transmission overlapped them — SINR capture resolved the
	// collision in their favour. Always 0 unless CaptureThresholdDB is set.
	Captured uint64
	// Policy is the final per-subslot policy of a Q-learning node (QMA or
	// NOMA) as one action kind per subslot ("." = QBackoff, "C" = QCCA,
	// "S" = QSend; a NOMA node's power level is not shown); empty for the
	// other MACs.
	Policy string
	// TableBytes is the Q-table's value-storage footprint in bytes for
	// Q-learning nodes — the paper's §3.2 resource figure for the selected
	// Table kind (648 float64, 324 fixed Q8.8, 162 quant 8-bit at 54×3; a
	// NOMA node holds 54×3K float64 values). 0 for the other MACs.
	TableBytes int
	// CumulativeQ, ExplorationRate and QueueLevel are sampled series when
	// SampleSeries was set (Q-learning nodes only for the first two).
	CumulativeQ, ExplorationRate, QueueLevel []Point
}

// Result reports a completed run.
type Result struct {
	// Nodes holds one entry per node id.
	Nodes []NodeResult
	// NetworkPDR is total delivered / total generated evaluation packets.
	NetworkPDR float64
	// MeanDelaySeconds is the mean end-to-end delay across all deliveries.
	MeanDelaySeconds float64
	// Events is the number of simulator events the run processed; divided by
	// wall time it yields the events/second throughput of the simulation.
	Events uint64
}

// Validate reports the first configuration problem, or nil.
func (s *Scenario) Validate() error {
	_, err := s.config()
	return err
}

// internal converts the public faults block to the internal schedule.
func (f *Faults) internal() faults.Schedule {
	if f == nil {
		return faults.Schedule{}
	}
	var out faults.Schedule
	for _, o := range f.Outages {
		out.Outages = append(out.Outages, faults.Outage{
			Node: o.Node, At: sim.FromSeconds(o.AtSeconds),
			Duration: sim.FromSeconds(o.ForSeconds), StopBeacons: o.StopBeacons,
		})
	}
	for _, r := range f.Reboots {
		out.Reboots = append(out.Reboots, faults.Reboot{Node: r.Node, At: sim.FromSeconds(r.AtSeconds)})
	}
	for _, w := range f.AckCorruption {
		out.AckCorruption = append(out.AckCorruption, faults.Window{
			At: sim.FromSeconds(w.AtSeconds), Duration: sim.FromSeconds(w.ForSeconds),
		})
	}
	for _, b := range f.BeaconLoss {
		out.BeaconLoss = append(out.BeaconLoss, faults.BeaconLoss{
			Node: b.Node, At: sim.FromSeconds(b.AtSeconds), Duration: sim.FromSeconds(b.ForSeconds),
		})
	}
	return out
}

// internal converts the public dynamics block to the scenario layer's form.
func (d *Dynamics) internal() scenario.DynamicsConfig {
	if d == nil {
		return scenario.DynamicsConfig{}
	}
	out := scenario.DynamicsConfig{
		Gilbert: radio.GilbertElliott{
			MeanGood: sim.FromSeconds(d.Channel.MeanGoodSeconds),
			MeanBad:  sim.FromSeconds(d.Channel.MeanBadSeconds),
			LossGood: d.Channel.LossGood,
			LossBad:  d.Channel.LossBad,
		},
	}
	for _, f := range d.Fades {
		out.Fades = append(out.Fades, scenario.FadeSpec{
			Node: nodeID(f.Node), At: sim.FromSeconds(f.AtSeconds), Duration: sim.FromSeconds(f.ForSeconds),
		})
	}
	for _, c := range d.Churn {
		out.Churn = append(out.Churn, scenario.ChurnSpec{
			Node: nodeID(c.Node), At: sim.FromSeconds(c.AtSeconds), Leave: c.Leave,
		})
	}
	for _, m := range d.Moves {
		out.Moves = append(out.Moves, scenario.MoveSpec{
			Node: nodeID(m.Node), At: sim.FromSeconds(m.AtSeconds), To: radio.Position{X: m.X, Y: m.Y},
		})
	}
	return out
}

// config converts s to the scenario layer's run config. It checks only what
// the public form owns — the MAC name, the int table kind, the explorer
// kind, the drop-policy string and the key=value options — and returns
// scenario.Config.Validate for every rule about the run itself.
func (s *Scenario) config() (scenario.Config, error) {
	cfg := scenario.Config{
		Network:            s.Topology.network(),
		MAC:                s.MAC.kind(),
		CaptureThresholdDB: s.CaptureThresholdDB,
		Seed:               s.Seed,
		Duration:           sim.FromSeconds(s.DurationSeconds),
		MeasureFrom:        sim.FromSeconds(s.MeasureFromSeconds),
		Dynamics:           s.Dynamics.internal(),
		Faults:             s.Faults.internal(),
		Barring:            s.Barring.internal(),
		DropDeadline:       sim.FromSeconds(s.DropDeadlineSeconds),
		SummaryOnly:        s.SummaryOnly,
	}
	// The scenario layer reads any threshold <= 0 as "capture disabled"; the
	// public contract names 0 as the off switch and rejects negatives.
	if s.CaptureThresholdDB < 0 {
		return cfg, fmt.Errorf("qma: CaptureThresholdDB=%g must not be negative (0 disables capture)", s.CaptureThresholdDB)
	}
	var err error
	if cfg.MACOptions, err = s.macOptions(); err != nil {
		return cfg, err
	}
	if cfg.DropPolicy, err = mac.ParseDropPolicy(s.DropPolicy); err != nil {
		return cfg, fmt.Errorf("qma: %w", err)
	}
	if s.SampleSeries {
		cfg.SamplePeriod = 122880 * sim.Microsecond // one superframe
	}
	for _, tr := range s.Traffic {
		spec := scenario.TrafficSpec{
			Origin:     nodeID(tr.Origin),
			StartAt:    sim.FromSeconds(tr.StartSeconds),
			MaxPackets: tr.MaxPackets,
			MPDUBytes:  tr.FrameBytes,
		}
		if tr.Management {
			spec.Tag = frame.TagManagement
		}
		for _, p := range tr.Phases {
			spec.Phases = append(spec.Phases, traffic.Phase{Rate: p.Rate, Duration: sim.FromSeconds(p.Seconds)})
		}
		cfg.Traffic = append(cfg.Traffic, spec)
	}
	for _, b := range s.Broadcasts {
		cfg.Broadcasts = append(cfg.Broadcasts, scenario.BroadcastSpec{
			Origin:  nodeID(b.Origin),
			Period:  sim.FromSeconds(b.PeriodSeconds),
			StartAt: sim.FromSeconds(b.StartSeconds),
		})
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("qma: %w", err)
	}
	return cfg, nil
}

// macOptions resolves the run's protocol options: key=value MACOptions
// through the protocol's ParseOptions hook when present, otherwise the QMA
// convenience fields (for QMA runs; other protocols default). A
// scenario-level Explorer flows into any protocol registering an
// AdoptExplorer hook. scenario.Config.Validate checks the result through the
// protocol's own Validate.
func (s *Scenario) macOptions() (any, error) {
	p, err := s.MAC.protocol()
	if err != nil {
		return nil, err
	}
	table, err := s.Table.internal()
	if err != nil {
		return nil, err
	}
	explorer, err := s.Explorer.internal()
	if err != nil {
		return nil, err
	}
	var opts any
	switch {
	case len(s.MACOptions) > 0:
		if p.ParseOptions == nil {
			return nil, fmt.Errorf("qma: protocol %q takes no key=value options", p.Name)
		}
		if opts, err = p.ParseOptions(s.MACOptions); err != nil {
			return nil, fmt.Errorf("qma: %w", err)
		}
	case p.Name == core.ProtocolName:
		opts = scenario.QMAOptions{
			Learn:           s.Learn.internal(),
			Table:           table,
			Explorer:        explorer,
			StartupSubslots: s.StartupSubslots,
		}
	}
	if explorer != nil && p.AdoptExplorer != nil {
		opts = p.AdoptExplorer(opts, explorer)
	}
	return opts, nil
}

// Run executes the scenario and returns its metrics.
func (s *Scenario) Run() (*Result, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	res := scenario.Run(cfg)

	out := &Result{
		NetworkPDR:       res.NetworkPDR(),
		MeanDelaySeconds: res.MeanDelay(),
		Events:           res.Events,
	}
	for i := range res.Nodes {
		n := &res.Nodes[i]
		nr := NodeResult{
			ID:               int(n.ID),
			Label:            n.Label,
			Generated:        n.Generated,
			Delivered:        n.Delivered,
			PDR:              n.PDR(),
			MeanDelaySeconds: n.MeanDelay(),
			AvgQueueLevel:    n.AvgQueueLevel,
			TxAttempts:       n.MAC.TxAttempts,
			TxSuccess:        n.MAC.TxSuccess,
			TxFail:           n.MAC.TxFail,
			RetryDrops:       n.MAC.RetryDrops,
			QueueDrops:       n.MAC.QueueDrops,
			Barred:           n.MAC.Barred,
			DeadlineDrops:    n.MAC.DeadlineDrops,
			Captured:         n.Radio.RxCaptured,
			Policy:           core.PolicyString(n.Policy),
			TableBytes:       n.TableBytes,
			CumulativeQ:      points(n.CumQ),
			ExplorationRate:  points(n.Rho),
			QueueLevel:       points(n.QueueSeries),
		}
		out.Nodes = append(out.Nodes, nr)
	}
	return out, nil
}

func points(s *stats.Series) []Point {
	if s == nil {
		return nil
	}
	out := make([]Point, s.Len())
	for i := range out {
		p := s.At(i)
		out[i] = Point{T: p.T, V: p.V}
	}
	return out
}

// Topology is a network with routing towards a sink.
type Topology struct {
	net *topo.Network
}

// network returns t's network, nil for a nil Topology (the scenario layer
// reports the missing network).
func (t *Topology) network() *topo.Network {
	if t == nil {
		return nil
	}
	return t.net
}

// nodeID narrows a public node id to the 16-bit frame.NodeID, saturating
// so an id beyond int16 stays out of range instead of wrapping onto a valid
// node.
func nodeID(id int) frame.NodeID {
	return frame.NodeID(max(math.MinInt16, min(id, math.MaxInt16)))
}

// NumNodes reports the node count.
func (t *Topology) NumNodes() int { return t.net.NumNodes() }

// Sink reports the data-collection root.
func (t *Topology) Sink() int { return int(t.net.Sink) }

// Label reports the display name of a node; an id outside the network
// reports its decimal string.
func (t *Topology) Label(id int) string {
	if id < 0 || id >= t.net.NumNodes() {
		return strconv.Itoa(id)
	}
	return t.net.Label(frame.NodeID(id))
}

// HiddenNode returns the paper's Fig. 6 scenario: A(0) and C(2) both reach
// the sink B(1) but not each other.
func HiddenNode() *Topology { return &Topology{net: topo.HiddenNode()} }

// Tree10 returns the 10-node testbed tree of Fig. 16.
func Tree10() *Topology { return &Topology{net: topo.Tree10()} }

// Star17 returns the 17-node testbed star of Fig. 17, built on a
// log-distance path-loss channel.
func Star17() *Topology { return &Topology{net: topo.Star17(topo.StarConfig{})} }

// Rings returns the concentric data-collection topology of Fig. 20 with the
// given number of hexagonal rings (1→7, 2→19, 3→43, 4→91 nodes).
func Rings(rings int) (*Topology, error) {
	if rings < 1 || rings > 8 {
		return nil, fmt.Errorf("qma: rings=%d out of range [1,8]", rings)
	}
	return &Topology{net: topo.Rings(rings)}, nil
}

// FactoryHall returns a random-uniform industrial-hall deployment: nodes
// devices over a square hall sized so the mean decode degree is ~degree
// (0 selects the default of 10), the sink in the center and min-hop routing
// towards it. Construction is O(N + E), so halls with tens of thousands of
// nodes build in well under a second. Nodes outside the sink's radio
// component stay unrouted — check HasRoute before attaching traffic.
func FactoryHall(nodes int, degree float64, seed uint64) (*Topology, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("qma: factory hall needs at least 2 nodes, got %d", nodes)
	}
	return &Topology{net: topo.FactoryHall(topo.FactoryConfig{Nodes: nodes, Degree: degree, Seed: seed})}, nil
}

// HasRoute reports whether node id has a forwarding path to the sink.
func (t *Topology) HasRoute(id int) bool {
	return id >= 0 && id < t.net.NumNodes() && t.net.Depth(frame.NodeID(id)) >= 0
}

// NewTopology builds a custom topology: n nodes, bidirectional links, a sink
// and a routing parent per node (-1 for the sink and detached nodes).
func NewTopology(n int, links [][2]int, sink int, parents []int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("qma: n=%d must be positive", n)
	}
	if sink < 0 || sink >= n {
		return nil, fmt.Errorf("qma: sink %d out of range [0,%d)", sink, n)
	}
	if len(parents) != n {
		return nil, fmt.Errorf("qma: got %d parents, want %d", len(parents), n)
	}
	g := topoGraph(n, links)
	if g == nil {
		return nil, errors.New("qma: link endpoint out of range")
	}
	ps := make([]frame.NodeID, n)
	for i, p := range parents {
		if p >= n {
			return nil, fmt.Errorf("qma: parent %d out of range", p)
		}
		ps[i] = frame.NodeID(p)
	}
	return &Topology{net: &topo.Network{
		Name:     "custom",
		Topology: g,
		Sink:     frame.NodeID(sink),
		Parent:   ps,
	}}, nil
}

func topoGraph(n int, links [][2]int) *radio.GraphTopology {
	g := radio.NewGraphTopology(n)
	for _, l := range links {
		if l[0] < 0 || l[0] >= n || l[1] < 0 || l[1] >= n {
			return nil
		}
		g.AddLink(frame.NodeID(l[0]), frame.NodeID(l[1]))
	}
	return g
}
