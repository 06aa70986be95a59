package dsme

import (
	"errors"
	"fmt"
	"time"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/superframe"
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
	MAC scenario.MACKind
	// QMA tunes QMA engines (ignored for CSMA runs).
	QMA scenario.QMAOptions
	// Seed selects the random streams.
	Seed uint64
	// Duration is the total simulated time.
	Duration sim.Time
	// Warmup opens the measurement window (the paper uses 200 s "to allow
	// for network formation"); traffic, slot allocation and learning run
	// from TrafficStart so the network has formed when measuring begins.
	Warmup sim.Time
	// TrafficStart delays the primary sources (0 selects 5 s).
	TrafficStart sim.Time
	// Phases is the per-node primary rate schedule. Nil selects the paper's
	// alternation of δ=1 and δ=10 packets/s every 5 s.
	Phases []traffic.Phase
	// BroadcastPeriod is the route-discovery hello interval (0 selects 2 s;
	// AODV's default hello interval is 1 s). The periodic broadcasts are
	// part of the secondary traffic and, being periodic, are exactly the
	// kind of hidden pattern QMA learns.
	BroadcastPeriod sim.Time
	// MaxTxSlots caps the GTS a node may hold (0 selects the CFP width).
	MaxTxSlots int
	// Barring configures sink-side load-adaptive access-class barring for
	// the CAP engines: the barring factor rides the (here: explicit DSME)
	// beacon each beacon interval, and the nodes gate fresh CAP
	// channel-access attempts on it. The zero value disables barring —
	// byte-identical to a pre-barring build.
	Barring barring.Config
	// EventBudget truncates the run after this many kernel events when
	// positive; WallBudget truncates it after this much real time. Both mark
	// ScenarioResult.Truncated, like scenario.Config's fields of the same
	// names.
	EventBudget uint64
	WallBudget  time.Duration
	// InvariantChecks arms the kernel and medium runtime self-checks.
	InvariantChecks bool
	// Arena, when non-nil, recycles the run's frame pool and per-node
	// hot-state slab across back-to-back runs of one worker (see
	// scenario.Config.Arena). Results are byte-identical with or without it.
	Arena *scenario.Arena
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
	// SlotsOwned is the final number of TX slots per node.
	SlotsOwned []int
	// Truncated reports that the run was cut short by EventBudget or
	// WallBudget before reaching Duration.
	Truncated bool
}

// Validate reports the first configuration problem, or nil. RunScenario
// panics with its error; the public qma facade returns it.
func (cfg *ScenarioConfig) Validate() error {
	switch {
	case cfg.Network == nil:
		return errors.New("network topology is required")
	case cfg.Duration <= 0:
		return fmt.Errorf("duration %v must be positive", cfg.Duration)
	case cfg.Warmup < 0 || cfg.Warmup >= cfg.Duration:
		return fmt.Errorf("warmup %v out of [0, duration)", cfg.Warmup)
	}
	if err := cfg.Barring.Validate(); err != nil {
		return err
	}
	p, opts, err := scenario.ResolveMAC(cfg.MAC, cfg.QMA, nil)
	if err != nil {
		return err
	}
	return p.ValidateOptions(opts)
}

// RunScenario executes a DSME data-collection run. It panics with the
// Validate error on a bad configuration.
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
	if cfg.TrafficStart <= 0 {
		cfg.TrafficStart = 5 * sim.Second
	}

	kernel := sim.NewKernel()
	clock := superframe.NewClock(superframe.DefaultConfig())
	medium := radio.NewMedium(kernel, cfg.Network.Topology, sim.NewRandStream(cfg.Seed, 1000))
	if cfg.EventBudget > 0 || cfg.WallBudget > 0 {
		kernel.SetBudget(cfg.EventBudget, cfg.WallBudget)
	}
	if cfg.InvariantChecks {
		kernel.SetInvariantChecks(true)
		medium.SetInvariantChecks(true)
	}
	metrics := &Metrics{}
	pool := &frame.Pool{}
	scratch := &mac.Scratch{}
	if cfg.Arena != nil {
		pool, scratch = cfg.Arena.Begin()
	}

	n := cfg.Network.NumNodes()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		node := NewNode(NodeConfig{
			ID:         id,
			Kernel:     kernel,
			Medium:     medium,
			Clock:      clock,
			Parent:     cfg.Network.Parent[i],
			Sink:       cfg.Network.Sink,
			Rng:        sim.NewRandStream(cfg.Seed, 5000+uint64(i)),
			MaxTxSlots: cfg.MaxTxSlots,
			Metrics:    metrics,
			FramePool:  pool,
		})
		// Like internal/scenario, the barring RNG stream (4000+id) only
		// exists when barring is configured, keeping zero-valued configs
		// byte-identical.
		var barringRng *sim.Rand
		if cfg.Barring.Enabled() {
			barringRng = sim.NewRandStream(cfg.Seed, 4000+uint64(i))
		}
		engine := proto.New(mac.Config{
			ID:         id,
			Kernel:     kernel,
			Medium:     medium,
			Clock:      clock,
			OnCommand:  node.CommandHook(),
			FramePool:  pool,
			Scratch:    scratch,
			BarringRng: barringRng,
		}, macOpts, sim.NewRandStream(cfg.Seed, uint64(i)))
		node.AttachCAP(engine)
		nodes[i] = node
		medium.Attach(id, node)
	}
	for _, node := range nodes {
		node.Start()
	}

	if cfg.Barring.Enabled() {
		// The barring factor rides the beacon: once per beacon interval the
		// sink folds the congestion it observed on the medium into the
		// controller and the nodes pick the new factor up with the beacon.
		sfd := clock.Config().SuperframeDuration()
		interval := cfg.Barring.Interval
		if interval <= 0 {
			interval = sfd
		}
		backoff := cfg.Barring.Backoff
		if backoff <= 0 {
			backoff = sfd
		}
		ctrl := barring.New(cfg.Barring)
		sink := cfg.Network.Sink
		var prev radio.NodeStats
		var prevAir sim.Time
		var tick func()
		tick = func() {
			cur := medium.Stats(sink)
			_, air := medium.ChannelLoad()
			obs := barring.Observation{
				Delivered:    cur.RxDelivered - prev.RxDelivered,
				Collided:     cur.RxCollided - prev.RxCollided,
				Captured:     cur.RxCaptured - prev.RxCaptured,
				BusyFraction: float64(air-prevAir) / float64(interval),
			}
			prev, prevAir = cur, air
			p := ctrl.Update(obs)
			for _, node := range nodes {
				node.CAP().Base().SetBarring(p, backoff)
			}
			kernel.Schedule(interval, tick)
		}
		kernel.Schedule(interval, tick)
	}

	// Secondary background traffic: periodic route-discovery broadcasts.
	for i := 0; i < n; i++ {
		b := &traffic.BroadcastSource{
			Kernel:  kernel,
			Rng:     sim.NewRandStream(cfg.Seed, 3000+uint64(i)),
			Target:  nodes[i].CAP(),
			Origin:  frame.NodeID(i),
			Period:  cfg.BroadcastPeriod,
			StartAt: 2 * sim.Second,
			OnGenerate: func(f *frame.Frame) {
				metrics.noteBroadcastSent()
			},
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
			Rng:    sim.NewRandStream(cfg.Seed, 2000+uint64(i)),
			Target: nodes[i],
			Origin: frame.NodeID(i),
			Sink:   cfg.Network.Sink,
			// FirstHop is rewritten by Node.Enqueue; the parent is correct
			// here for clarity.
			FirstHop: cfg.Network.Parent[i],
			Phases:   cfg.Phases,
			StartAt:  cfg.TrafficStart,
			Tag:      frame.TagEval,
		}
		src.Start()
	}

	var before []NodeStats
	kernel.At(cfg.Warmup, func() {
		metrics.SetMeasuring(true)
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
		SlotsOwned: make([]int, n),
		Truncated:  kernel.BudgetExhausted(),
	}
	var completed uint64
	for i, node := range nodes {
		res.Nodes[i] = node.Stats()
		res.CAP[i] = node.CAP().Base().Stats()
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
	return res
}
