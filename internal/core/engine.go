package core

import (
	"fmt"
	"math"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Config assembles a QMA engine. The zero values of the power-level fields
// (Levels, LevelStepDB, CapturedOver) give the paper's QMA.
type Config struct {
	// MAC configures the shared MAC base (node id, kernel, medium, clock,
	// queue, routing). Config.OnOverhear is owned by the engine and must be
	// nil.
	MAC mac.Config
	// Table is the Q-value storage. Nil selects a float64 table with Learn
	// parameters; pass an integer table (TableKind.NewTable) for the
	// embedded variants.
	Table qlearn.Table
	// Learn are the hyperparameters used when Table is nil (zero value
	// selects qlearn.DefaultParams).
	Learn qlearn.Params
	// Explorer decides the exploration rate ρ. Nil selects the paper's
	// parameter-based strategy (Fig. 4 table), one value shared by every
	// engine (qlearn.DefaultExplorer).
	Explorer qlearn.Explorer
	// Rng drives exploration decisions; required. New takes ownership of
	// the stream: the engine copies its state into its own block, so the
	// caller must pass a fresh stream and not draw from it afterwards.
	Rng *sim.Rand
	// StartupSubslots is Δ, the number of subslots of cautious startup
	// (§4.3). Negative selects the default of two full frames; 0 disables
	// cautious startup.
	StartupSubslots int
	// StartupPunish applies the §4.3 punishments to QCCA/QSend for subslots
	// with overheard traffic. DefaultConfig enables it.
	StartupPunish bool
	// ReevalOnDecay is the ablation switch forwarded to the learner.
	ReevalOnDecay bool
	// Levels is K, the number of transmit power levels in the action space
	// (at most MaxLevels); 0 or 1 is a single level at reference power.
	// Table, when set, must hold NumActions·K actions.
	Levels int
	// LevelStepDB is the power reduction per level: level ℓ transmits
	// ℓ·LevelStepDB dB below the reference power. It must be finite and
	// non-negative.
	LevelStepDB float64
	// CapturedOver turns on the captured-over reward shaping: a failed
	// transmission during whose ACK wait a foreign ACK was overheard earns
	// RewardCapturedOver instead of the full failure punishment.
	CapturedOver bool
}

// Stats aggregates QMA-specific counters on top of the shared mac.Stats.
type Stats struct {
	// ActionCount counts executed actions by kind (exploration and policy),
	// summed over the power levels.
	ActionCount [NumActions]uint64
	// Explorations counts randomly selected actions.
	Explorations uint64
	// Decisions counts Algorithm 1 invocations (subslots with a non-empty
	// queue after startup).
	Decisions uint64
	// Deferrals counts transmissions postponed because the transaction did
	// not fit into the remaining CAP.
	Deferrals uint64
	// StartupObservations counts cautious-startup subslot observations.
	StartupObservations uint64
	// LevelCount counts executed QCCA/QSend actions by power level.
	LevelCount [MaxLevels]uint64
	// SuccessByLevel counts acknowledged transmissions by power level.
	SuccessByLevel [MaxLevels]uint64
	// CapturedOver counts failed transmissions whose punishment was
	// softened to RewardCapturedOver (Config.CapturedOver).
	CapturedOver uint64
}

// pending tracks an action whose reward is not yet known (the paper saves
// state and action until the outcome is observable, §4). action is the
// flattened index: a multi-level engine learns backoff at each level apart.
type pending struct {
	subslot int
	action  uint8
	startup bool
}

// Engine is one node's QMA MAC, and with Config.Levels > 1 the NOMA
// power-level MAC too. It is driven entirely by its kernel; after Start it
// needs no external calls besides Enqueue.
//
// An Engine is one memory block per node. It holds by value:
//   - the shared MAC state (mac.Base: configuration, transmit-queue header,
//     ACK wait, barring and neighbour-level state);
//   - the learner (qlearn.Learner: the Table reference and π's slice header)
//     and, for the default float64 table, the table header;
//   - the exploration RNG (sim.Rand);
//   - the subslot ticker, pending-reward and statistics fields below.
//
// Only the Q row, π and the transmit-queue buffer live outside it, carved
// from the run's mac.Scratch, and the default explorer is one shared value.
// A subslot tick therefore touches this block plus the node's rows. At a
// subslot boundary thousands of queued nodes tick at the same instant, and
// the kernel prefetches the first sim.ContextPrefetchBytes of the next
// tick's engine while the current one runs. So every field a tick without
// a transmission reads or writes sits in one prefix of that size: the
// engine's own tick fields, then mac.Base, whose tick-read fields lead it
// (TestTickFieldsInPrefetchedPrefix pins this). The transmission, CCA and
// reboot state and the remaining statistics follow the base.
type Engine struct {
	learner  qlearn.Learner
	explorer qlearn.Explorer
	rng      sim.Rand

	startupLeft int

	armed sim.EventID
	// armedAt/armedSubslot remember the boundary the ticker is armed for, so
	// the per-tick re-arm advances incrementally (Clock.NextBoundary) instead
	// of re-deriving the position with divisions. armedSubslot is -1 when no
	// boundary has been derived yet (fresh or rebooted engine).
	armedAt      sim.Time
	armedSubslot int

	// pend is the action whose reward window is open; hasPend guards it.
	// Inlined so a backoff decision costs no allocation.
	pend pending

	// rhoSum/rhoCount accumulate exploration rates between TakeRhoSample
	// calls (Fig. 11 instrumentation).
	rhoSum   float64
	rhoCount int

	// ticks are the Stats counters a tick writes.
	ticks tickCounters

	// floatTable is the learner's table when Config.Table is nil, the
	// default float64 case: its header lives in the block too.
	floatTable qlearn.FloatTable

	// hasPend guards pend; overhear records that a frame was overheard in
	// its reward window (Eq. 6). startupPunish is Config.StartupPunish.
	hasPend       bool
	overhear      bool
	startupPunish bool
	// levels is K (at least 1); the flattened action index is kind·K+level.
	levels uint8

	base mac.Base

	// captureShaping is Config.CapturedOver. txWaiting/foreignAck implement
	// its detection: foreignAck records whether an ACK addressed to another
	// node was overheard while this node's own ACK wait was open.
	captureShaping bool
	txWaiting      bool
	foreignAck     bool

	// In-flight CCA state, inlined for the same reason as pend: a node runs
	// at most one CCA at a time (it is busy for the whole window and the
	// completion fires strictly before the next boundary), so the subslot,
	// action and epoch live in the engine and the kernel callback is the
	// long-lived engineCCA.
	ccaAction  uint8
	ccaSubslot int
	ccaEpoch   uint32

	// epoch counts power-cycle faults (mac.Engine.Reboot). Kernel callbacks
	// that outlive a reboot — the CCA completion — record the epoch they
	// were scheduled under and become no-ops when it has moved on.
	epoch uint32

	startupInit int

	// stepDB is Config.LevelStepDB, read once per transmission.
	stepDB float64

	// The Stats counters no tick writes (see ticks for the others).
	deferrals      uint64
	levelCount     [MaxLevels]uint64
	successByLevel [MaxLevels]uint64
	capturedOver   uint64
}

// tickCounters are the Stats counters a subslot tick writes, kept in the
// engine block's prefetched prefix apart from the others.
type tickCounters struct {
	actions             [NumActions]uint64
	explorations        uint64
	decisions           uint64
	startupObservations uint64
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg. It panics on an invalid configuration;
// scenario builders construct engines at assembly time.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("core: Rng is required")
	}
	if cfg.MAC.OnOverhear != nil || cfg.MAC.OnAccept != nil {
		panic("core: MAC.OnOverhear and MAC.OnAccept are owned by the engine")
	}
	if cfg.MAC.Clock == nil {
		panic("core: MAC.Clock is required")
	}
	subslots := cfg.MAC.Clock.Config().Subslots
	scratch := cfg.MAC.Scratch
	explorer := cfg.Explorer
	if explorer == nil {
		explorer = qlearn.DefaultExplorer()
	}
	if cfg.StartupSubslots < 0 {
		cfg.StartupSubslots = 2 * subslots
	}
	if cfg.Levels < 0 || cfg.Levels > MaxLevels {
		panic(fmt.Sprintf("core: Levels=%d out of [0,%d]", cfg.Levels, MaxLevels))
	}
	if !(cfg.LevelStepDB >= 0 && cfg.LevelStepDB <= math.MaxFloat64) {
		panic(fmt.Sprintf("core: LevelStepDB=%v must be finite and non-negative", cfg.LevelStepDB))
	}
	levels := max(cfg.Levels, 1)
	actions := NumActions * levels

	e := &Engine{
		explorer:       explorer,
		rng:            *cfg.Rng,
		startupLeft:    cfg.StartupSubslots,
		startupInit:    cfg.StartupSubslots,
		startupPunish:  cfg.StartupPunish,
		armedSubslot:   -1,
		levels:         uint8(levels),
		captureShaping: cfg.CapturedOver,
		stepDB:         cfg.LevelStepDB,
	}
	table := cfg.Table
	if table == nil {
		p := cfg.Learn
		if p == (qlearn.Params{}) {
			p = qlearn.DefaultParams()
		}
		e.floatTable.Init(subslots, actions, p, scratch.Float64s(subslots*actions))
		table = &e.floatTable
	}
	if table.States() != subslots || table.Actions() != actions {
		panic(fmt.Sprintf("core: table dimensions %dx%d, want %dx%d",
			table.States(), table.Actions(), subslots, actions))
	}
	e.learner.Init(table, int(QBackoff), scratch.Uint8s(subslots))
	e.learner.SetReevalOnDecay(cfg.ReevalOnDecay)
	cfg.MAC.OnOverhear = e.onOverhear
	cfg.MAC.OnAccept = e.arm
	e.base.Init(cfg.MAC, e)
	return e
}

// Learner exposes the Q-learning state for instrumentation and tests.
func (e *Engine) Learner() *qlearn.Learner { return &e.learner }

// EngineStats returns a copy of the QMA-specific counters.
func (e *Engine) EngineStats() Stats {
	return Stats{
		ActionCount:         e.ticks.actions,
		Explorations:        e.ticks.explorations,
		Decisions:           e.ticks.decisions,
		Deferrals:           e.deferrals,
		StartupObservations: e.ticks.startupObservations,
		LevelCount:          e.levelCount,
		SuccessByLevel:      e.successByLevel,
		CapturedOver:        e.capturedOver,
	}
}

// PolicyKinds reports the policy π as one action kind (QBackoff, QCCA or
// QSend) per subslot, dropping the power level of a multi-level engine.
func (e *Engine) PolicyKinds() []int {
	policy := e.learner.PolicySnapshot()
	for m, a := range policy {
		kind, _ := e.split(a)
		policy[m] = int(kind)
	}
	return policy
}

// PolicyString renders a policy of action kinds (PolicyKinds) one byte per
// subslot: '.' for QBackoff, 'C' for QCCA and 'S' for QSend. A nil policy
// renders as "".
func PolicyString(policy []int) string {
	b := make([]byte, len(policy))
	for i, a := range policy {
		switch Action(a) {
		case QCCA:
			b[i] = 'C'
		case QSend:
			b[i] = 'S'
		default:
			b[i] = '.'
		}
	}
	return string(b)
}

// split decomposes a flattened action index kind·K + level. Comparing
// against K and 2K keeps a division off the decision path.
func (e *Engine) split(a int) (kind Action, level int) {
	k := int(e.levels)
	switch {
	case a < k:
		return QBackoff, a
	case a < 2*k:
		return QCCA, a - k
	}
	return QSend, a - 2*k
}

// Base implements mac.Engine.
func (e *Engine) Base() *mac.Base { return &e.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (e *Engine) Deliver(f *frame.Frame) { e.base.Deliver(f) }

// Start implements mac.Engine: it arms the subslot ticker.
func (e *Engine) Start() { e.arm() }

// Enqueue implements mac.Engine; an accepted frame re-arms the ticker
// through the Base's OnAccept hook.
func (e *Engine) Enqueue(f *frame.Frame) bool { return e.base.Enqueue(f) }

// CumulativePolicyQ reports Σ_m Q(m, π(m)), the Fig. 10 / Fig. 12 stability
// metric.
func (e *Engine) CumulativePolicyQ() float64 { return e.learner.CumulativePolicyQ() }

// TakeRhoSample reports the mean exploration rate ρ over all decisions since
// the previous call (Fig. 11 instrumentation) and the number of decisions it
// averages over.
func (e *Engine) TakeRhoSample() (mean float64, n int) {
	n = e.rhoCount
	if n > 0 {
		mean = e.rhoSum / float64(n)
	}
	e.rhoSum, e.rhoCount = 0, 0
	return mean, n
}

// Reboot implements mac.Engine: a power-cycle fault wipes everything a
// real node keeps in RAM — the Q-table and policy, the pending reward
// window, cautious-startup progress and the shared MAC state — and restarts
// the engine as a freshly joined node (full cautious startup). The
// instrumentation counters (EngineStats) survive: they are measurement
// infrastructure, not node state, and the relearning cost the faults
// experiments report depends on seeing across the reboot.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.armed.Cancel()
	e.armed = sim.EventID{}
	e.armedAt = 0
	e.armedSubslot = -1
	e.hasPend = false
	e.overhear = false
	e.txWaiting = false
	e.foreignAck = false
	e.startupLeft = e.startupInit
	e.learner.Reset(int(QBackoff))
	e.rhoSum, e.rhoCount = 0, 0
	e.epoch++
	e.arm()
}

// engineTick and engineCCA are the long-lived kernel callbacks of every QMA
// engine; per-event context rides in the engine itself, so arming a tick or
// finishing a CCA performs no allocation.
func engineTick(a any) { a.(*Engine).tick() }
func engineCCA(a any)  { a.(*Engine).ccaDone() }

// arm schedules the next subslot tick unless one is already scheduled. When
// called from the tick itself (now is exactly the armed boundary) the next
// boundary follows incrementally, with no division.
func (e *Engine) arm() {
	now := e.base.Kernel().Now()
	if e.armed.Pending() && e.armed.At() > now {
		return
	}
	var next sim.Time
	var idx int
	if now == e.armedAt && e.armedSubslot >= 0 {
		next, idx = e.base.Clock().NextBoundary(now, e.armedSubslot)
	} else {
		next = e.base.Clock().NextSubslotStart(now)
		idx = e.base.Clock().Subslot(next)
	}
	e.armed = e.base.Kernel().AtCall(next, engineTick, e)
	e.armedAt, e.armedSubslot = next, idx
}

// needTick reports whether the engine has any reason to observe the next
// subslot boundary.
func (e *Engine) needTick() bool {
	return e.hasPend || e.startupLeft > 0 || !e.base.Queue().Empty() || e.base.Busy()
}

// tick runs at every subslot boundary while the engine is active. It first
// evaluates a pending backoff-type action (QEvaluation in Fig. 2), then
// makes the next decision (QDecision).
func (e *Engine) tick() {
	// The armed bookkeeping usually knows this boundary's subslot index
	// already, saving the division in Subslot. It cannot be trusted blindly:
	// an Enqueue arriving at the very instant this tick fires (but before it
	// runs) re-arms the NEXT boundary and clobbers armedSubslot, so the
	// cached index is only valid while armedAt still equals now.
	now := e.base.Kernel().Now()
	var m int
	if now == e.armedAt && e.armedSubslot >= 0 {
		m = e.armedSubslot
	} else {
		m = e.base.Clock().Subslot(now)
	}
	if m < 0 {
		// Boundary fell outside the CAP (cannot happen with valid subslot
		// boundaries, but guard against clock misconfiguration).
		e.armIfNeeded()
		return
	}

	if e.hasPend {
		e.evaluateBackoff(m)
	}

	switch {
	case e.base.Busy():
		// A transmission, ACK wait or ACK duty is in progress; the outcome
		// callback performs the Q-update.
	case e.startupLeft > 0:
		e.startupObserve(m)
	case e.base.Queue().Empty():
		// "If no more packets are available for transmission, no action is
		// selected" (§6.1.3).
	default:
		// Access-class barring gates every fresh channel-access decision: a
		// barred node sits the subslot out, the ticker keeps polling (free
		// while the barring backoff runs) and a fresh Bernoulli draw happens
		// once it has passed.
		if barred, _ := e.base.AccessBarred(); !barred {
			e.decide(m)
		}
	}
	e.armIfNeeded()
}

func (e *Engine) armIfNeeded() {
	if e.needTick() {
		e.arm()
	}
}

// evaluateBackoff finalizes a QBackoff (or cautious-startup observation)
// whose reward window just closed. nextSubslot is the subslot the agent
// arrived in.
func (e *Engine) evaluateBackoff(nextSubslot int) {
	p := e.pend
	e.hasPend = false
	reward := float64(RewardBackoffIdle)
	if e.overhear {
		reward = RewardBackoffOverhear
	}
	e.learner.Observe(p.subslot, int(p.action), reward, nextSubslot)
	if p.startup && e.startupPunish && e.overhear {
		// Mark the subslot as foreign-owned in the QCCA and QSend rows too,
		// at every power level, biasing the node against claiming it (§4.3).
		k := int(e.levels)
		for level := 0; level < k; level++ {
			e.learner.Observe(p.subslot, k+level, StartupPunishCCA, nextSubslot)
			e.learner.Observe(p.subslot, 2*k+level, StartupPunishSend, nextSubslot)
		}
	}
	e.overhear = false
}

// startupObserve performs one cautious-startup subslot: QBackoff only.
func (e *Engine) startupObserve(m int) {
	e.startupLeft--
	e.ticks.startupObservations++
	e.pend = pending{subslot: m, action: uint8(QBackoff), startup: true}
	e.hasPend = true
	e.overhear = false
}

// decide runs one Algorithm 1 step at subslot m. Exploration draws
// uniformly over the kind × level cross product, which keeps each kind's
// probability at 1/3 for every K.
func (e *Engine) decide(m int) {
	e.ticks.decisions++
	rho := e.explorer.Rate(qlearn.ExploreContext{
		Now:              e.base.Kernel().Now(),
		QueueLevel:       e.base.Queue().Len(),
		AvgNeighborQueue: e.base.AvgNeighborQueue(),
	})
	e.rhoSum += rho
	e.rhoCount++

	var action int
	if e.rng.Float64() < rho {
		action = e.rng.Intn(NumActions * int(e.levels))
		e.ticks.explorations++
	} else {
		action = e.learner.Policy(m)
	}
	e.execute(m, action)
}

// execute performs the selected (flattened) action.
func (e *Engine) execute(m, action int) {
	kind, level := e.split(action)
	e.ticks.actions[kind]++
	switch kind {
	case QBackoff:
		e.pend = pending{subslot: m, action: uint8(action)}
		e.hasPend = true
		e.overhear = false
	case QCCA:
		e.levelCount[level]++
		e.startCCA(m, action)
	case QSend:
		e.levelCount[level]++
		e.startTX(m, action)
	}
}

// startCCA samples the channel at the end of the 8-symbol CCA window, so
// that a QSend started at the same boundary is visible to it. At most one
// CCA is in flight per node (the node is busy for the window), so its
// context lives inline in the engine. The CCA listens at full sensitivity
// whatever level the node intends to transmit at.
func (e *Engine) startCCA(m, action int) {
	now := e.base.Kernel().Now()
	e.base.ExtendBusy(now + frame.CCADuration)
	e.ccaSubslot = m
	e.ccaAction = uint8(action)
	e.ccaEpoch = e.epoch
	e.base.Kernel().AtCall(now+frame.CCADuration, engineCCA, e)
}

// ccaDone completes the CCA window armed by startCCA.
func (e *Engine) ccaDone() {
	if e.epoch != e.ccaEpoch {
		// A reboot fault struck mid-CCA; the continuation belongs to the
		// previous life of this node.
		return
	}
	if !e.base.Medium().CCA(e.base.ID()) {
		// Channel busy: reward 1 and back off to the next subslot
		// (Eq. 7, the QCCA(fail) edge of Fig. 3).
		next := e.nextDecisionSubslot()
		e.learner.Observe(e.ccaSubslot, int(e.ccaAction), RewardCCABusy, next)
		return
	}
	e.startTX(e.ccaSubslot, int(e.ccaAction))
}

// startTX transmits the queue head at the action's power level (for QCCA
// the CCA window has already elapsed, so the transmission starts 8 symbols
// into the subslot).
func (e *Engine) startTX(m, action int) {
	f := e.base.Queue().Head()
	if f == nil {
		// The queue drained while the CCA ran (cannot currently happen: the
		// head is only removed by outcomes, and no outcome can interleave
		// with a CCA). Treat as a no-op.
		return
	}
	now := e.base.Kernel().Now()
	if !e.base.Clock().FitsInCAP(now, f.ExchangeDuration()) {
		// Defer to the next CAP without a Q-update (802.15.4 rule: the
		// transaction must complete before the CAP ends).
		e.deferrals++
		return
	}
	// The (m, action) context rides with the transmission as its context
	// word: when a transmission ends exactly on a subslot boundary whose
	// tick precedes the completion event, the engine can start the next
	// transaction before the previous outcome fires, so the context must be
	// frozen per transmission rather than kept in the engine.
	_, level := e.split(action)
	e.txWaiting = e.captureShaping
	e.foreignAck = false
	e.base.SendFrameAt(f, float64(level)*e.stepDB, uint32(m)<<8|uint32(action))
}

// TxDone implements mac.Engine: it applies the Eq. 7/8 reward, with the
// power-aware shaping of a multi-level engine, to the transmission's
// (m, action) context once its outcome is known, then lets the retry policy
// decide the frame's fate.
func (e *Engine) TxDone(f *frame.Frame, ctx uint32, success bool) {
	m, action := int(ctx>>8), int(ctx&0xff)
	kind, level := e.split(action)
	capturedOver := e.foreignAck && !success
	e.txWaiting = false
	e.foreignAck = false

	var reward float64
	switch {
	case success:
		reward = RewardCCASuccessTx
		if kind == QSend {
			reward = RewardSendSuccess
		}
		reward += float64(level) * LevelSuccessBonus
		e.successByLevel[level]++
	case capturedOver:
		reward = RewardCapturedOver
		e.capturedOver++
	case kind == QSend:
		reward = RewardSendFail
	default:
		reward = RewardCCAFailedTx
	}
	next := e.nextDecisionSubslot()
	e.learner.Observe(m, action, reward, next)
	e.base.FinishFrame(f, success)
	e.armIfNeeded()
}

// nextDecisionSubslot reports the subslot of the first boundary at which the
// agent can act again — the successor state m_{t+i} of Algorithm 1.
func (e *Engine) nextDecisionSubslot() int {
	return e.base.Clock().Subslot(e.base.Clock().NextSubslotStart(e.base.Kernel().Now()))
}

// onOverhear is installed as the MAC overhear hook: any decoded DATA, ACK or
// command frame marks the current backoff window as "subslot in use"
// (Eq. 6). Beacons are infrastructure and do not count. With captured-over
// shaping, an ACK addressed to another node during this node's own ACK wait
// is the transmitter-side evidence that the subslot carried a captured
// transaction rather than a mutual kill.
func (e *Engine) onOverhear(f *frame.Frame) {
	if f.Kind == frame.Beacon {
		return
	}
	if e.hasPend {
		e.overhear = true
	}
	if e.txWaiting && f.Kind == frame.Ack && f.Dst != e.base.ID() {
		e.foreignAck = true
	}
}
