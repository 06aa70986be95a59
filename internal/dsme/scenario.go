package dsme

import (
	"fmt"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// ScenarioConfig describes a §6.3 data-collection run: every non-sink node
// generates primary data towards the center with a fluctuating Poisson rate;
// primary packets travel in GTS slots, and the resulting (de)allocation
// handshakes plus periodic route-discovery broadcasts form the secondary
// traffic carried by the MAC under test during the CAP.
type ScenarioConfig struct {
	// Network is the topology with routing (usually topo.Rings).
	Network *topo.Network
	// MAC selects the CAP channel access scheme.
	MAC mac.Name
	// QMA tunes QMA engines (ignored for CSMA runs).
	QMA scenario.QMAOptions
	// Seed selects the random streams.
	Seed uint64
	// Duration is the total simulated time.
	Duration sim.Time
	// Warmup opens the measurement window (the paper uses 200 s "to allow
	// for network formation"); traffic, slot allocation and learning run
	// from trafficStart so the network has formed when measuring begins.
	Warmup sim.Time
	// Phases is the per-node primary rate schedule. Nil selects the paper's
	// alternation of δ=1 and δ=10 packets/s every 5 s.
	Phases []traffic.Phase
	// BroadcastPeriod is the route-discovery hello interval (0 selects 2 s;
	// AODV's default hello interval is 1 s). The periodic broadcasts are
	// part of the secondary traffic and, being periodic, are exactly the
	// kind of hidden pattern QMA learns.
	BroadcastPeriod sim.Time
	// Barring configures sink-side load-adaptive access-class barring for
	// the CAP engines: the barring factor rides the (here: explicit DSME)
	// beacon each beacon interval, and the nodes gate fresh CAP
	// channel-access attempts on it. The zero value disables barring —
	// byte-identical to a pre-barring build.
	Barring barring.Config
	// EventBudget truncates the run after this many kernel events when
	// positive and marks ScenarioResult.Truncated, like scenario.Config's
	// field of the same name.
	EventBudget uint64
	// InvariantChecks arms the kernel, medium and frame-pool runtime
	// self-checks.
	InvariantChecks bool
}

// ScenarioResult carries the §6.3 metrics.
type ScenarioResult struct {
	// Metrics is the network-wide counter snapshot.
	Metrics Metrics
	// AllocationsPerSecond counts completed (de)allocation handshakes per
	// measured second (the "twice more TDMA-slots per second" claim).
	AllocationsPerSecond float64
	// Nodes are the per-node DSME counters.
	Nodes []NodeStats
	// CAP are the per-node MAC counters of the CAP engines.
	CAP []mac.Stats
	// GTS are the per-node MAC counters of the GTS links, which carry the
	// primary data.
	GTS []mac.Stats
	// SlotsOwned is the final number of TX slots per node.
	SlotsOwned []int
	// Events is the number of kernel events the run processed.
	Events uint64
	// Truncated reports that the run was cut short by EventBudget before
	// reaching Duration.
	Truncated bool
}

// base is the contention-study config this run shares with the evaluation's
// other tracks: its Validate holds the network, duration, barring and MAC
// rules, and scenario.NewSubstrate builds the run's kernel, clock, medium and
// frame pool from it.
func (cfg *ScenarioConfig) base() scenario.Config {
	return scenario.Config{
		Network:         cfg.Network,
		MAC:             cfg.MAC,
		QMA:             cfg.QMA,
		Seed:            cfg.Seed,
		Duration:        cfg.Duration,
		Barring:         cfg.Barring,
		EventBudget:     cfg.EventBudget,
		InvariantChecks: cfg.InvariantChecks,
	}
}

// Validate reports the first configuration problem, or nil. RunScenario
// panics with its error; the public qma facade returns it. Only the warmup
// rule is DSME's own.
func (cfg *ScenarioConfig) Validate() error {
	base := cfg.base()
	if err := base.Validate(); err != nil {
		return err
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration {
		return fmt.Errorf("warmup %v out of [0, duration)", cfg.Warmup)
	}
	return nil
}

// trafficStart is when the primary sources begin, after the route-discovery
// broadcasts (from 2 s) have let the network form.
const trafficStart = 5 * sim.Second

// RunScenario executes a DSME data-collection run. It panics with the
// Validate error on a bad configuration. Once the result is collected, the
// run's storage goes to the next run to recycle (scenario.Substrate.Release).
func RunScenario(cfg ScenarioConfig) *ScenarioResult {
	if err := cfg.Validate(); err != nil {
		panic("dsme: " + err.Error())
	}
	proto, macOpts, _ := scenario.ResolveMAC(cfg.MAC, cfg.QMA, nil)
	if cfg.Phases == nil {
		cfg.Phases = []traffic.Phase{
			{Rate: 1, Duration: 5 * sim.Second},
			{Rate: 10, Duration: 5 * sim.Second},
		}
	}
	if cfg.BroadcastPeriod <= 0 {
		cfg.BroadcastPeriod = 2 * sim.Second
	}

	base := cfg.base()
	sub := scenario.NewSubstrate(&base)
	kernel := sub.Kernel
	metrics := &Metrics{from: cfg.Warmup}

	n := cfg.Network.NumNodes()
	nodes := make([]*Node, n)
	engines := make([]mac.Engine, n)
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		node := NewNode(NodeConfig{
			ID:        id,
			Kernel:    kernel,
			Medium:    sub.Medium,
			Clock:     sub.Clock,
			Parent:    cfg.Network.Parent[i],
			Rng:       sim.NewRandStream(cfg.Seed, scenario.StreamDSME+uint64(i)),
			Metrics:   metrics,
			FramePool: sub.Pool,
			Scratch:   sub.Scratch,
		})
		capCfg := sub.MACConfig(id)
		capCfg.OnCommand = node.CommandHook()
		capCfg.OnFrameFinished = node.capFrameFinished
		// The CAP engines try each GTS-request once (NR = 0, no
		// retransmission), unlike scenario.Run's NR = 3; the fig21-22
		// golden digest pins it.
		capCfg.MaxRetries = 0
		engines[i] = proto.New(capCfg, macOpts, sim.NewRandStream(cfg.Seed, uint64(i)))
		node.AttachCAP(engines[i])
		nodes[i] = node
		sub.Medium.Attach(id, node)
	}
	for _, node := range nodes {
		node.Start()
	}
	// The barring factor rides the (here: explicit DSME) beacon to the CAP
	// engines.
	sub.ArmBarring(engines)

	// Secondary background traffic: periodic route-discovery broadcasts.
	for i := 0; i < n; i++ {
		b := &traffic.BroadcastSource{
			Kernel:     kernel,
			Rng:        sim.NewRandStream(cfg.Seed, scenario.StreamBroadcast+uint64(i)),
			Target:     engines[i],
			Origin:     frame.NodeID(i),
			Period:     cfg.BroadcastPeriod,
			StartAt:    2 * sim.Second,
			Pool:       sub.Pool,
			OnGenerate: metrics.noteBroadcastSent,
		}
		b.Start()
	}

	// Primary traffic: every non-sink node streams data to the center.
	for i := 0; i < n; i++ {
		if frame.NodeID(i) == cfg.Network.Sink {
			continue
		}
		src := &traffic.Source{
			Kernel: kernel,
			Rng:    sim.NewRandStream(cfg.Seed, scenario.StreamTraffic+uint64(i)),
			Target: nodes[i],
			Origin: frame.NodeID(i),
			Sink:   cfg.Network.Sink,
			// FirstHop is rewritten by Node.Enqueue; the parent is correct
			// here for clarity.
			FirstHop: cfg.Network.Parent[i],
			Phases:   cfg.Phases,
			StartAt:  trafficStart,
			Tag:      frame.TagEval,
			Pool:     sub.Pool,
		}
		src.Start()
	}

	var before []NodeStats
	kernel.At(cfg.Warmup, func() {
		before = make([]NodeStats, n)
		for i, node := range nodes {
			before[i] = node.Stats()
		}
	})

	kernel.Run(cfg.Duration)

	res := &ScenarioResult{
		Metrics:    *metrics,
		Nodes:      make([]NodeStats, n),
		CAP:        make([]mac.Stats, n),
		GTS:        make([]mac.Stats, n),
		SlotsOwned: make([]int, n),
		Events:     kernel.Processed(),
		Truncated:  kernel.BudgetExhausted(),
	}
	var completed uint64
	for i, node := range nodes {
		res.Nodes[i] = node.Stats()
		res.CAP[i] = node.CAP().Base().Stats()
		res.GTS[i] = node.Base().Stats()
		res.SlotsOwned[i] = node.Slots().Count(SlotTX)
		completed += res.Nodes[i].AllocCompleted + res.Nodes[i].DeallocCompleted
		if before != nil {
			completed -= before[i].AllocCompleted + before[i].DeallocCompleted
		}
	}
	measured := cfg.Duration - cfg.Warmup
	if measured > 0 {
		res.AllocationsPerSecond = float64(completed) / measured.Seconds()
	}
	sub.Release()
	return res
}
