// Package mac provides the channel-access-independent half of a MAC layer:
// transmit queue management, immediate acknowledgements, retransmission and
// drop bookkeeping, duplicate rejection, multi-hop forwarding and the
// queue-level statistics the paper's figures report. Every registered
// protocol embeds Base — the QMA engine (internal/core) directly, CSMA/CA,
// ALOHA and the slot bandit through Access — and contributes only its
// channel access discipline, which keeps the comparison between the schemes
// honest: everything except access timing is shared code. A DSME node
// (internal/dsme) embeds a Base for its GTS data path too, so the primary
// data in the allocated slots runs on the same link layer as the CAP.
package mac

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// DefaultMaxRetries is macMaxFrameRetries (NR = 3): a unicast frame is
// dropped after three failed retransmissions (§4, "a packet is dropped after
// NR retransmission as in CSMA/CA").
const DefaultMaxRetries = 3

// Router decides the next hop towards a sink. Implementations are static
// routing trees built by internal/topo.
type Router interface {
	// NextHop returns the neighbour `from` should forward to in order to
	// reach sink, and whether a route exists.
	NextHop(from, sink frame.NodeID) (frame.NodeID, bool)
}

// Engine is the interface scenario builders wire to traffic generators and
// the radio. Every registered protocol implements it: QMA (and NOMA, which
// runs on QMA's engine) directly, CSMA/CA, ALOHA and the slot bandit
// through the embedded Access. A DSME node implements it for its GTS data
// path.
type Engine interface {
	radio.Handler
	// Start arms the engine's channel access on its kernel. It must be
	// called exactly once, before any traffic arrives.
	Start()
	// Enqueue offers a frame for transmission and reports whether the
	// transmit queue accepted it.
	Enqueue(f *frame.Frame) bool
	// Base exposes the shared state for statistics collection.
	Base() *Base
	// Reboot applies the power-cycle fault of internal/faults: it wipes all
	// volatile protocol state — learning tables, backoff progress,
	// transaction flags — on top of Base.Reboot, then re-enters the
	// engine's startup behaviour.
	Reboot()
	// TxDone reports the outcome of one transmission the engine started with
	// Base.SendFrame or Base.SendFrameAt: true after an acknowledged unicast
	// or a sent broadcast, false after an ACK timeout. ctx is the word the
	// engine passed to SendFrameAt, frozen per transmission. The Base calls
	// it exactly once per transmission, unless a Reboot cancels it first.
	TxDone(f *frame.Frame, ctx uint32, success bool)
}

// Stats aggregates the per-node MAC counters the evaluation reports.
type Stats struct {
	// Enqueued counts frames accepted into the transmit queue.
	Enqueued uint64
	// QueueDrops counts frames rejected because the queue was full.
	QueueDrops uint64
	// TxAttempts counts data transmissions put on the air (excluding ACKs).
	TxAttempts uint64
	// TxSuccess counts acknowledged unicasts plus sent broadcasts.
	TxSuccess uint64
	// TxFail counts unicast attempts with no acknowledgement.
	TxFail uint64
	// RetryDrops counts frames dropped after MaxRetries failed attempts.
	RetryDrops uint64
	// CSMAFails counts frames dropped because the CSMA backoff algorithm
	// exceeded macMaxCSMABackoffs (QMA never increments this: it backs off
	// indefinitely, §4).
	CSMAFails uint64
	// AcksSent counts immediate acknowledgements transmitted.
	AcksSent uint64
	// Delivered counts data frames accepted at this node as final sink.
	Delivered uint64
	// Forwarded counts data frames re-queued towards their sink.
	Forwarded uint64
	// Duplicates counts received frames rejected as duplicates.
	Duplicates uint64
	// FaultTxSuppressed counts transmissions suppressed by fault injection
	// (internal/faults): the node was down or had lost beacon sync, so the
	// frame never reached the air even though the engine went through its
	// full transmit sequence.
	FaultTxSuppressed uint64
	// FaultRxDropped counts frames that arrived while the node was down.
	FaultRxDropped uint64
	// AcksCorrupted counts acknowledgements discarded undecoded inside an
	// ACK-corruption window.
	AcksCorrupted uint64
	// Reboots counts power-cycle faults applied to this node.
	Reboots uint64
	// Barred counts channel-access attempts denied by the access-class
	// barring gate (internal/barring): the Bernoulli(p) draw failed and the
	// engine waited out the barring backoff.
	Barred uint64
	// DeadlineDrops counts queued frames evicted by the DeadlineDrop policy
	// because they exceeded their queueing deadline while the queue was full.
	DeadlineDrops uint64
}

// DropPolicy selects what a full transmit queue sacrifices when another
// frame arrives. The zero value is TailDrop, the pre-existing behaviour.
type DropPolicy uint8

const (
	// TailDrop rejects the incoming frame (the default).
	TailDrop DropPolicy = iota
	// DropOldest evicts the oldest queued frame that is not the in-service
	// head to make room for the newcomer — under overload, fresh data beats
	// stale data.
	DropOldest
	// DeadlineDrop evicts queued non-head frames older than the configured
	// deadline; when nothing has expired it falls back to tail-drop. The
	// IIoT framing: a sensor reading past its deadline is worthless, so it
	// should not occupy a queue slot under backpressure.
	DeadlineDrop
)

// ParseDropPolicy resolves the CLI/public-API spelling of a drop policy.
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch s {
	case "", "tail":
		return TailDrop, nil
	case "oldest":
		return DropOldest, nil
	case "deadline":
		return DeadlineDrop, nil
	}
	return TailDrop, fmt.Errorf("mac: unknown drop policy %q (want tail, oldest or deadline)", s)
}

// String reports the canonical spelling.
func (d DropPolicy) String() string {
	switch d {
	case DropOldest:
		return "oldest"
	case DeadlineDrop:
		return "deadline"
	}
	return "tail"
}

// Config assembles a Base. All reference fields are required. The fields a
// QMA subslot tick reads (Kernel, Clock, NeighborStaleAfter, BarringRng)
// lead, because Base keeps its Config inside the engine block's prefetched
// prefix (see core.Engine).
type Config struct {
	// Kernel is the simulation kernel shared by the scenario.
	Kernel *sim.Kernel
	// Clock is the shared superframe clock.
	Clock *superframe.Clock
	// NeighborStaleAfter bounds how long an overheard queue level stays in
	// the §4.2 neighbour table (0 selects 16 superframes ≈ 2 s). Without
	// expiry a saturated network deadlocks: every node remembers its
	// neighbours' queues as full, the queue difference stays at zero and
	// parameter-based exploration shuts down for everyone at once.
	NeighborStaleAfter sim.Time
	// BarringRng drives the node's access-class barring draws
	// (internal/barring). It must be a deterministic stream private to this
	// node. nil — the default — disables the barring gate entirely:
	// AccessBarred returns immediately and never draws, so runs without
	// barring stay byte-identical.
	BarringRng *sim.Rand
	// ID is the node's address.
	ID frame.NodeID
	// Medium is the shared radio channel.
	Medium *radio.Medium
	// QueueCap bounds the transmit queue (<=0 selects the paper's 8).
	QueueCap int
	// MaxRetries is NR (<0 selects DefaultMaxRetries; 0 means no retries).
	MaxRetries int
	// Router enables multi-hop forwarding (nil for single-hop scenarios).
	Router Router
	// OnSinkDeliver is invoked for every data frame that reaches its final
	// sink at this node (after duplicate rejection). May be nil.
	OnSinkDeliver func(f *frame.Frame)
	// OnCommand is invoked for every GTS command frame addressed to this
	// node (after duplicate rejection). The dsme package installs it. May be
	// nil.
	OnCommand func(f *frame.Frame)
	// OnFrameFinished is invoked exactly once for every frame that
	// permanently leaves the transmit queue, before the frame returns to the
	// pool: true after an acknowledged unicast or a sent broadcast, false
	// when the frame is dropped (retries or channel access exhausted,
	// evicted, or flushed by a reboot). The dsme package installs it to
	// drive its handshake timers. May be nil.
	OnFrameFinished func(f *frame.Frame, success bool)
	// OnOverhear is invoked for every decoded frame regardless of
	// destination, before any other processing. The QMA engine installs it
	// to drive the QBackoff reward (Eq. 6). May be nil.
	OnOverhear func(f *frame.Frame)
	// OnAccept is invoked whenever the transmit queue accepts a frame —
	// including frames the forwarding path enqueues internally. Engines
	// install their channel-access trigger here (Access installs its
	// own); without it a node whose queue fills through forwarding
	// alone would never start transmitting. May be nil.
	OnAccept func()
	// FramePool, when non-nil, recycles MAC-owned frames: immediate ACKs
	// are returned to it after their on-air time, forwarded copies are
	// allocated from it, and every data frame is returned when it
	// permanently leaves the transmit queue (acknowledged, dropped after
	// retries, or dropped by CSMA backoff exhaustion). All engines of one
	// kernel may share a pool; it must not cross kernels.
	FramePool *frame.Pool
	// Scratch, when non-nil, slab-allocates this node's hot state (transmit
	// queue buffer, and — via the engines — Q-table and policy) from a shared
	// per-run arena, so the state of neighbouring nodes is contiguous in
	// memory. All engines of one kernel share one Scratch; it must not cross
	// kernels, and a run arena may be rewound (Scratch.Reset) only after
	// every engine of the previous run is dropped.
	Scratch *Scratch
	// Drop selects the transmit-queue overflow policy (zero: TailDrop, the
	// pre-existing behaviour).
	Drop DropPolicy
	// DropDeadline is the DeadlineDrop age limit (0 selects 16 superframes
	// ≈ 2 s, the neighbour-staleness horizon).
	DropDeadline sim.Time
}

// neighborLevel is one §4.2 neighbour-table entry: the queue level id last
// piggybacked and when it was overheard.
type neighborLevel struct {
	id    frame.NodeID
	level uint8
	at    sim.Time
}

// Base is the shared MAC state machine. It is bound to one kernel and not
// safe for concurrent use.
type Base struct {
	// The fields a QMA subslot tick reads come first: busyUntil, the
	// neighbours, the queue header and, leading cfg, the kernel, clock,
	// neighbour staleness and barring stream. They sit in the engine
	// block's prefetched prefix (see core.Engine).

	// busyUntil marks the end of the node's current MAC activity
	// (transmission, CCA, ACK wait or pending immediate ACK). Engines must
	// not start new activity before it passes.
	busyUntil sim.Time

	// neighbors holds the most recently overheard queue level per neighbour
	// (piggybacked in every frame, §4.2) with its reception time, one entry
	// per neighbour in no particular order. A flat slice rather than a map:
	// AvgNeighborQueue walks it on every QMA decision, and a node hears only
	// its radio neighbourhood.
	neighbors []neighborLevel

	queue frame.Queue

	cfg Config

	// owner is the engine that embeds this Base; it receives every
	// transmission outcome (Engine.TxDone).
	owner Engine

	// The pending ACK wait, inlined: a node has at most one unicast in
	// flight, so the state lives directly in the Base instead of a
	// per-transmission allocation. waiting guards the other three fields.
	// (Here and below the small fields sit together, so the engine block
	// that embeds the Base stays within its allocation size class.)
	waitFrame *frame.Frame
	waitTimer sim.EventID
	waitCtx   uint32
	waiting   bool

	// The pending broadcast completions, a two-slot FIFO whose oldest
	// entry is bcastHead; a slot is pending while its frame is non-nil. A
	// completion fires at the broadcast's end, and a boundary tick at that
	// very instant may start the node's next transmission first, so two
	// can be pending at once but never three, and they fire in the order
	// the broadcasts started. Each slot freezes its frame and the engine's
	// context word. Reboot cancels both so a stale completion cannot fire
	// into a flushed queue.
	bcastHead  uint8
	bcastCtx   [2]uint32
	bcastFrame [2]*frame.Frame
	bcastEv    [2]sim.EventID

	// ackEvents are the scheduled-but-not-yet-transmitted immediate ACKs,
	// tracked so Reboot can cancel them. Pruned lazily on every sendAck, the
	// slice holds at most a handful of entries.
	ackEvents []sim.EventID

	// downUntil, desyncUntil and ackCorruptUntil carry the fault-injection
	// horizons (internal/faults): while down the node neither transmits nor
	// receives; while desynchronized it receives but does not transmit;
	// while ACKs are corrupted every inbound ACK is dropped undecoded. All
	// three are plain timestamps, so a zero-valued fault schedule costs a
	// few always-false comparisons and changes nothing else.
	downUntil       sim.Time
	desyncUntil     sim.Time
	ackCorruptUntil sim.Time

	// Access-class barring state (internal/barring). barP is the factor the
	// sink last broadcast (1 = fully open), barBackoff the barring backoff
	// that came with it, barUntil the horizon of the node's current barred
	// wait, and barStreak the consecutive failed draws driving the adaptive
	// retry-backoff escalation. All plain values: with cfg.BarringRng nil the
	// gate is a single pointer comparison and the state never changes.
	barP       float64
	barBackoff sim.Time
	barUntil   sim.Time
	barStreak  int

	// lastSeq tracks the highest delivered sequence number per origin for
	// duplicate rejection; an origin without an entry has delivered nothing
	// yet. Allocated on the first unicast delivery, so nodes that are never
	// addressed carry no map.
	lastSeq map[frame.NodeID]uint32

	// stats are the counters behind Stats.
	stats Stats

	// Queue-level time integral for the Fig. 8 metric.
	qlIntegralStart sim.Time
	qlLastChange    sim.Time
	qlIntegral      float64

	// ackStartFn/ackDoneFn are long-lived callbacks for the immediate-ACK
	// path, scheduled via Kernel.AtCall so acknowledging costs no closure
	// allocations.
	ackStartFn func(any)
	ackDoneFn  func(any)
}

// Init validates cfg and initialises b in place. Engines embed Base by
// value and call Init once from their constructor, passing themselves as
// owner: a node's MAC state shares one allocation with the engine that
// drives it, and the owner receives every transmission outcome.
func (b *Base) Init(cfg Config, owner Engine) {
	if cfg.Kernel == nil || cfg.Medium == nil || cfg.Clock == nil || owner == nil {
		panic("mac: Kernel, Medium, Clock and owner are required")
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.NeighborStaleAfter <= 0 {
		cfg.NeighborStaleAfter = 16 * cfg.Clock.Config().SuperframeDuration()
	}
	if cfg.DropDeadline <= 0 {
		cfg.DropDeadline = 16 * cfg.Clock.Config().SuperframeDuration()
	}
	qcap := cfg.QueueCap
	if qcap <= 0 {
		qcap = frame.DefaultQueueCap
	}
	*b = Base{
		cfg:   cfg,
		queue: *frame.NewQueueOn(qcap, cfg.Scratch.Frames(qcap+1)),
		owner: owner,
		barP:  1,
	}
	b.ackStartFn = func(a any) { b.transmitAck(a.(*frame.Frame)) }
	b.ackDoneFn = func(a any) { b.cfg.FramePool.Put(a.(*frame.Frame)) }
}

// ID reports the node address.
func (b *Base) ID() frame.NodeID { return b.cfg.ID }

// Kernel returns the simulation kernel.
func (b *Base) Kernel() *sim.Kernel { return b.cfg.Kernel }

// Medium returns the radio channel.
func (b *Base) Medium() *radio.Medium { return b.cfg.Medium }

// Clock returns the superframe clock.
func (b *Base) Clock() *superframe.Clock { return b.cfg.Clock }

// FramePool returns the frame pool (nil when frames are not recycled).
func (b *Base) FramePool() *frame.Pool { return b.cfg.FramePool }

// Queue returns the transmit queue.
func (b *Base) Queue() *frame.Queue { return &b.queue }

// Stats returns a copy of the counters.
func (b *Base) Stats() Stats { return b.stats }

// MaxRetries reports the configured NR.
func (b *Base) MaxRetries() int { return b.cfg.MaxRetries }

// Busy reports whether MAC activity is in progress at the current instant.
func (b *Base) Busy() bool { return b.busyUntil > b.cfg.Kernel.Now() }

// BusyUntil reports the end of the current MAC activity.
func (b *Base) BusyUntil() sim.Time { return b.busyUntil }

// ExtendBusy marks the node busy until at least t.
func (b *Base) ExtendBusy(t sim.Time) {
	if t > b.busyUntil {
		b.busyUntil = t
	}
}

// SetDownUntil takes the node completely off the network until t: nothing
// it sends reaches the air (engines still observe ordinary failed-unicast
// timing) and nothing sent to it is received or acknowledged. Fault
// injection for coordinator/sink outages (internal/faults).
func (b *Base) SetDownUntil(t sim.Time) {
	if t > b.downUntil {
		b.downUntil = t
	}
}

// SetDesyncUntil suspends the node's channel access until t: transmissions
// are suppressed, reception stays intact. Fault injection for beacon loss —
// a node without beacon synchronization must not transmit, but its receiver
// keeps listening.
func (b *Base) SetDesyncUntil(t sim.Time) {
	if t > b.desyncUntil {
		b.desyncUntil = t
	}
}

// CorruptAcksUntil drops every inbound acknowledgement undecoded until t:
// transmitters see timeouts and retry even though their data arrived. Fault
// injection for the classic asymmetric ACK-path failure.
func (b *Base) CorruptAcksUntil(t sim.Time) {
	if t > b.ackCorruptUntil {
		b.ackCorruptUntil = t
	}
}

// SetBarring installs the barring factor p and barring backoff the sink
// broadcast in its latest beacon (internal/barring). Engines never call it;
// the scenario's beacon loop pushes the payload into every Base at each
// beacon instant. Without a configured BarringRng the values are stored but
// the gate stays inert.
func (b *Base) SetBarring(p float64, backoff sim.Time) {
	b.barP = p
	b.barBackoff = backoff
}

// BarringFactor reports the barring factor last broadcast to this node
// (1 until the first beacon arrives).
func (b *Base) BarringFactor() float64 { return b.barP }

// barStreakCap bounds the adaptive retry-backoff escalation: sustained
// barring doubles the wait per consecutive failed draw up to 2^barStreakCap
// times the broadcast backoff, so a congested network spreads its retries
// without any node waiting unboundedly long.
const barStreakCap = 3

// AccessBarred applies the access-class barring gate to a new channel-access
// attempt: with probability p (the factor from the latest beacon) access is
// granted; otherwise the attempt is barred and the engine must not touch the
// channel before retryAt. Engines call it at the top of every fresh access
// attempt — retries of an attempt already in flight are not re-gated, which
// mirrors LTE access-class barring (the draw happens per access attempt, not
// per backoff slot).
//
// Cost discipline: with no BarringRng configured (barring disabled) the
// method returns after one nil comparison and draws nothing, so pre-existing
// runs replay byte-identically. While a barred wait is pending, repeated
// calls return the same horizon without drawing, so per-subslot engines can
// poll it freely.
func (b *Base) AccessBarred() (barred bool, retryAt sim.Time) {
	if b.cfg.BarringRng == nil || b.barP >= 1 {
		return false, 0
	}
	now := b.cfg.Kernel.Now()
	if b.barUntil > now {
		return true, b.barUntil
	}
	if b.cfg.BarringRng.Float64() < b.barP {
		b.barStreak = 0
		return false, 0
	}
	b.stats.Barred++
	wait := b.barBackoff
	if wait <= 0 {
		wait = b.cfg.Clock.Config().SuperframeDuration()
	}
	if s := b.barStreak; s > 0 {
		if s > barStreakCap {
			s = barStreakCap
		}
		wait <<= uint(s)
	}
	b.barStreak++
	b.barUntil = now + wait
	return true, b.barUntil
}

// Reboot wipes the Base's volatile state as a power cycle would: the
// transmit queue, the pending ACK wait, scheduled immediate ACKs, the
// pending broadcast completions, the neighbour table and the
// duplicate-rejection history. The cancelled outcomes never reach
// Engine.TxDone — every Engine.Reboot calls this and resets the engine's
// own transaction state in the same instant. busyUntil is intentionally
// preserved: the PHY finishes an in-air symbol regardless of what the MCU
// does. Flushed frames are not returned to the frame pool, because the
// medium may still be delivering one of them; they leak to the garbage
// collector, which is the price of a mid-transaction power cycle, not a
// steady-state cost.
func (b *Base) Reboot() {
	if b.waiting {
		b.waitTimer.Cancel()
		b.waiting = false
		b.waitFrame = nil
	}
	for i := range b.bcastEv {
		b.bcastEv[i].Cancel()
	}
	b.bcastFrame, b.bcastEv, b.bcastHead = [2]*frame.Frame{}, [2]sim.EventID{}, 0
	for _, ev := range b.ackEvents {
		ev.Cancel()
	}
	b.ackEvents = b.ackEvents[:0]
	b.noteQueueChange()
	// Drain by count: the OnFrameFinished hook may legitimately enqueue a
	// fresh frame (e.g. a retried handshake), which the post-reboot node
	// keeps.
	for n := b.queue.Len(); n > 0; n-- {
		f := b.queue.Pop()
		b.frameFinished(f, false)
	}
	b.neighbors = b.neighbors[:0]
	clear(b.lastSeq)
	// Barring state is volatile too: a freshly booted node has not heard a
	// beacon yet, so it starts fully open and re-learns p at the next one.
	b.barP = 1
	b.barBackoff = 0
	b.barUntil = 0
	b.barStreak = 0
	b.stats.Reboots++
}

// Enqueue implements Engine: it offers f to the transmit queue, tracking the
// queue-level integral and drop counters, and notifies the engine's
// channel-access trigger on acceptance. A full queue first applies the
// configured drop policy (evicting queued frames under DropOldest and
// DeadlineDrop); whatever still does not fit is tail-dropped.
func (b *Base) Enqueue(f *frame.Frame) bool {
	b.noteQueueChange()
	if b.queue.Full() && b.cfg.Drop != TailDrop {
		b.makeRoom()
	}
	if !b.queue.Push(f) {
		b.stats.QueueDrops++
		return false
	}
	b.stats.Enqueued++
	if b.cfg.OnAccept != nil {
		b.cfg.OnAccept()
	}
	return true
}

// makeRoom applies the DropOldest/DeadlineDrop eviction to a full queue.
// Index 0 — the in-service head an engine may be transmitting right now — is
// never evicted, so a queue of capacity 1 degrades to tail-drop. Evicted
// frames leave the MAC permanently: the OnFrameFinished hook sees them fail
// and they return to the frame pool exactly once, like any other drop.
func (b *Base) makeRoom() {
	switch b.cfg.Drop {
	case DropOldest:
		if b.queue.Len() > 1 {
			b.evict(1)
			b.stats.QueueDrops++
		}
	case DeadlineDrop:
		cutoff := b.cfg.Kernel.Now() - b.cfg.DropDeadline
		// Walk back-to-front so removals do not shift unvisited indices.
		for i := b.queue.Len() - 1; i >= 1; i-- {
			if b.queue.At(i).CreatedAt < cutoff {
				b.evict(i)
				b.stats.DeadlineDrops++
			}
		}
	}
}

func (b *Base) evict(i int) {
	f := b.queue.RemoveAt(i)
	b.frameFinished(f, false)
	b.cfg.FramePool.Put(f)
}

func (b *Base) noteQueueChange() {
	now := b.cfg.Kernel.Now()
	b.qlIntegral += float64(b.queue.Len()) * float64(now-b.qlLastChange)
	b.qlLastChange = now
}

// AvgQueueLevel reports the time-averaged queue occupancy since the last
// ResetQueueIntegral (Fig. 8 metric).
func (b *Base) AvgQueueLevel() float64 {
	now := b.cfg.Kernel.Now()
	total := float64(now - b.qlIntegralStart)
	if total <= 0 {
		return 0
	}
	integral := b.qlIntegral + float64(b.queue.Len())*float64(now-b.qlLastChange)
	return integral / total
}

// ResetQueueIntegral restarts queue-level averaging at the current instant
// (scenarios call it when the warm-up phase ends).
func (b *Base) ResetQueueIntegral() {
	now := b.cfg.Kernel.Now()
	b.qlIntegral = 0
	b.qlIntegralStart = now
	b.qlLastChange = now
}

// AvgNeighborQueue reports the mean of the recently overheard queue levels
// of all neighbours, 0 when nothing fresh was overheard (§4.2). Entries
// older than NeighborStaleAfter are evicted: silence from a neighbour means
// its advertised queue level is no longer trustworthy, and keeping it would
// freeze parameter-based exploration in a saturated network.
func (b *Base) AvgNeighborQueue() float64 {
	cutoff := b.cfg.Kernel.Now() - b.cfg.NeighborStaleAfter
	// The levels are uint8, so the float64 sum is exact and the mean does
	// not depend on the entry order the swap-removal leaves behind.
	var sum float64
	for i := 0; i < len(b.neighbors); {
		if b.neighbors[i].at < cutoff {
			last := len(b.neighbors) - 1
			b.neighbors[i] = b.neighbors[last]
			b.neighbors = b.neighbors[:last]
			continue
		}
		sum += float64(b.neighbors[i].level)
		i++
	}
	if len(b.neighbors) == 0 {
		return 0
	}
	return sum / float64(len(b.neighbors))
}

// SendFrame transmits f now at the reference (maximum) power and reports
// the outcome to the owner's Engine.TxDone exactly once: immediately after
// the transmission for broadcasts (optimistic: no ACK exists to report a
// loss), or after the ACK / ACK timeout for unicasts. It returns the
// instant the node becomes idle again. The caller must ensure the node is
// not busy and the transaction fits in the CAP.
func (b *Base) SendFrame(f *frame.Frame) sim.Time {
	return b.SendFrameAt(f, 0, 0)
}

// SendFrameAt is SendFrame with an explicit transmit power and context
// word. reduceDB is the power reduction below the topology's reference
// power in dB (0 = reference power, the SendFrame default): a power-level
// engine (core.Engine with Config.Levels > 1, the noma protocol) picks the
// level per transmission, and the returning ACK is always sent at reference
// power by the receiver's own Base. ctx is handed back unchanged with the
// outcome, so an engine whose next transmission may start before the
// previous outcome fires keeps that outcome's context without allocating.
func (b *Base) SendFrameAt(f *frame.Frame, reduceDB float64, ctx uint32) sim.Time {
	if b.waiting {
		panic(fmt.Sprintf("mac: node %d sends while awaiting an ACK", b.cfg.ID))
	}
	ql := b.queue.Len()
	if ql > 255 {
		ql = 255
	}
	f.QueueLevel = uint8(ql)
	b.stats.TxAttempts++
	var txEnd sim.Time
	if now := b.cfg.Kernel.Now(); b.downUntil > now || b.desyncUntil > now {
		// The node is down or has lost beacon synchronization: nothing goes
		// on the air, but the transmission keeps its exact timing, so the
		// engine above sees the ordinary failed-unicast (or completed-
		// broadcast) sequence and runs its unmodified retry logic.
		b.stats.FaultTxSuppressed++
		txEnd = now + f.Duration()
	} else {
		txEnd = b.cfg.Medium.StartTX(b.cfg.ID, f, reduceDB)
	}
	if f.IsBroadcast() {
		b.ExtendBusy(txEnd)
		i := b.bcastHead
		if b.bcastFrame[i] != nil {
			i ^= 1
			if b.bcastFrame[i] != nil {
				panic(fmt.Sprintf("mac: node %d starts a third overlapping broadcast", b.cfg.ID))
			}
		}
		b.bcastFrame[i], b.bcastCtx[i] = f, ctx
		b.bcastEv[i] = b.cfg.Kernel.AtCall(txEnd, broadcastDone, b)
		return txEnd
	}
	deadline := txEnd + frame.AckWait
	b.ExtendBusy(deadline)
	b.waiting = true
	b.waitFrame, b.waitCtx = f, ctx
	b.waitTimer = b.cfg.Kernel.AtCall(deadline, ackTimeout, b)
	return deadline
}

// broadcastDone and ackTimeout are the static kernel callbacks of the
// transmission outcomes.
func broadcastDone(a any) { a.(*Base).broadcastDone() }
func ackTimeout(a any)    { a.(*Base).endWait(false) }

// broadcastDone reports the oldest pending broadcast to the owner.
func (b *Base) broadcastDone() {
	i := b.bcastHead
	f := b.bcastFrame[i]
	b.bcastFrame[i] = nil
	b.bcastHead ^= 1
	b.stats.TxSuccess++
	b.owner.TxDone(f, b.bcastCtx[i], true)
}

// endWait closes the pending ACK wait — acknowledged, or timed out — and
// reports the outcome to the owner.
func (b *Base) endWait(success bool) {
	f := b.waitFrame
	b.waiting = false
	b.waitFrame = nil
	if success {
		b.stats.TxSuccess++
	} else {
		b.stats.TxFail++
	}
	b.owner.TxDone(f, b.waitCtx, success)
}

// FinishFrame applies the retry policy after a unicast data outcome: on
// success the frame is removed from the queue; on failure it is retried
// until MaxRetries is exhausted, then dropped. It reports whether the frame
// left the queue. The frame must be the queue head.
func (b *Base) FinishFrame(f *frame.Frame, success bool) (done bool) {
	if b.queue.Head() != f {
		panic(fmt.Sprintf("mac: node %d finishes a frame that is not the queue head", b.cfg.ID))
	}
	if success {
		b.noteQueueChange()
		b.queue.Pop()
		b.frameFinished(f, true)
		b.cfg.FramePool.Put(f)
		return true
	}
	f.Retries++
	if int(f.Retries) > b.cfg.MaxRetries {
		b.noteQueueChange()
		b.queue.Pop()
		b.stats.RetryDrops++
		b.frameFinished(f, false)
		b.cfg.FramePool.Put(f)
		return true
	}
	return false
}

func (b *Base) frameFinished(f *frame.Frame, success bool) {
	if b.cfg.OnFrameFinished != nil {
		b.cfg.OnFrameFinished(f, success)
	}
}

// DropCSMAFailure removes the queue head after a channel-access failure
// (macMaxCSMABackoffs exceeded). Only the CSMA engines call it.
func (b *Base) DropCSMAFailure(f *frame.Frame) {
	if b.queue.Head() != f {
		panic(fmt.Sprintf("mac: node %d CSMA-drops a frame that is not the queue head", b.cfg.ID))
	}
	b.noteQueueChange()
	b.queue.Pop()
	b.stats.CSMAFails++
	b.frameFinished(f, false)
	b.cfg.FramePool.Put(f)
}

// Deliver implements radio.Handler: the shared receive path. Every decoded
// frame feeds the overhear hook and the neighbour queue-level table; frames
// addressed to this node are acknowledged, de-duplicated and handed to the
// sink, forwarding or command paths.
func (b *Base) Deliver(f *frame.Frame) {
	now := b.cfg.Kernel.Now()
	if b.downUntil > now {
		// Outage: the receiver is off. Nothing is decoded, overheard or
		// acknowledged (fault injection, internal/faults).
		b.stats.FaultRxDropped++
		return
	}
	if f.Kind == frame.Ack && b.ackCorruptUntil > now {
		// ACK-corruption window: the ACK arrives as noise, invisible even to
		// the overhear hook.
		b.stats.AcksCorrupted++
		return
	}
	if b.cfg.OnOverhear != nil {
		b.cfg.OnOverhear(f)
	}
	if f.Kind != frame.Ack && f.Src != b.cfg.ID {
		b.noteNeighbor(f.Src, f.QueueLevel, now)
	}

	switch {
	case f.Kind == frame.Ack:
		if f.Dst == b.cfg.ID {
			b.handleAck(f)
		}
	case f.Dst == b.cfg.ID:
		b.handleUnicast(f)
	case f.IsBroadcast():
		b.handleBroadcast(f)
	}
}

// noteNeighbor records the queue level id advertised at now, replacing its
// previous entry.
func (b *Base) noteNeighbor(id frame.NodeID, level uint8, now sim.Time) {
	for i := range b.neighbors {
		if b.neighbors[i].id == id {
			b.neighbors[i].level, b.neighbors[i].at = level, now
			return
		}
	}
	b.neighbors = append(b.neighbors, neighborLevel{id: id, level: level, at: now})
}

func (b *Base) handleAck(f *frame.Frame) {
	if !b.waiting || b.waitFrame.Dst != f.Src || b.waitFrame.Seq != f.Seq {
		return
	}
	b.waitTimer.Cancel()
	b.endWait(true)
}

func (b *Base) handleUnicast(f *frame.Frame) {
	// Immediate acknowledgement after aTurnaroundTime. The ACK occupies the
	// medium like any frame, which is what makes the hidden-node CCA of the
	// paper's Fig. 6 occasionally fail at A and C.
	b.sendAck(f)

	if b.isDuplicate(f) {
		b.stats.Duplicates++
		return
	}
	switch f.Kind {
	case frame.Data:
		b.acceptData(f)
	case frame.GTSRequest:
		if b.cfg.OnCommand != nil {
			b.cfg.OnCommand(f)
		}
	}
}

func (b *Base) handleBroadcast(f *frame.Frame) {
	switch f.Kind {
	case frame.GTSResponse, frame.GTSNotify:
		if b.cfg.OnCommand != nil {
			b.cfg.OnCommand(f)
		}
	case frame.Data:
		b.acceptData(f)
	}
}

func (b *Base) acceptData(f *frame.Frame) {
	if f.Sink == b.cfg.ID || f.IsBroadcast() {
		b.stats.Delivered++
		if b.cfg.OnSinkDeliver != nil {
			b.cfg.OnSinkDeliver(f)
		}
		return
	}
	if b.cfg.Router == nil {
		return
	}
	next, ok := b.cfg.Router.NextHop(b.cfg.ID, f.Sink)
	if !ok {
		return
	}
	fwd := b.cfg.FramePool.Get()
	fwd.Kind = frame.Data
	fwd.Src = b.cfg.ID
	fwd.Dst = next
	fwd.Origin = f.Origin
	fwd.Sink = f.Sink
	fwd.Seq = f.Seq
	fwd.MPDUBytes = f.MPDUBytes
	fwd.Tag = f.Tag
	fwd.CreatedAt = f.CreatedAt
	if b.Enqueue(fwd) {
		b.stats.Forwarded++
	} else {
		b.cfg.FramePool.Put(fwd)
	}
}

func (b *Base) isDuplicate(f *frame.Frame) bool {
	if last, ok := b.lastSeq[f.Origin]; ok && f.Seq <= last {
		return true
	}
	if b.lastSeq == nil {
		b.lastSeq = make(map[frame.NodeID]uint32)
	}
	b.lastSeq[f.Origin] = f.Seq
	return false
}

func (b *Base) sendAck(f *frame.Frame) {
	now := b.cfg.Kernel.Now()
	ackStart := now + frame.TurnaroundTime
	ack := b.cfg.FramePool.Get()
	ack.Kind = frame.Ack
	ack.Src = b.cfg.ID
	ack.Dst = f.Src
	ack.Origin = b.cfg.ID
	ack.Sink = f.Src
	ack.Seq = f.Seq
	ack.MPDUBytes = frame.AckMPDUBytes
	ack.Channel = f.Channel
	b.ExtendBusy(ackStart + frame.AckDuration)
	b.trackAck(b.cfg.Kernel.AtCall(ackStart, b.ackStartFn, ack))
}

// trackAck remembers a scheduled immediate-ACK event so Reboot can cancel
// it, lazily pruning entries that already fired. A node rarely owes more
// than one ACK at a time, so the prune is O(1) in practice and the slice
// never regrows after warm-up.
func (b *Base) trackAck(ev sim.EventID) {
	n := 0
	for _, e := range b.ackEvents {
		if e.Pending() {
			b.ackEvents[n] = e
			n++
		}
	}
	b.ackEvents = append(b.ackEvents[:n], ev)
}

// transmitAck puts a prepared immediate ACK on the air and arranges its
// return to the frame pool once the transmission (and therefore delivery,
// which the medium performs first at the same instant) has ended.
func (b *Base) transmitAck(ack *frame.Frame) {
	// Skip the ACK if the node somehow started transmitting meanwhile
	// (cannot normally happen: a node transmitting during the reception
	// would have corrupted it), or if an outage began in the turnaround gap
	// — a down node stays silent.
	if b.cfg.Medium.Transmitting(b.cfg.ID) || b.downUntil > b.cfg.Kernel.Now() {
		b.cfg.FramePool.Put(ack)
		return
	}
	b.stats.AcksSent++
	txEnd := b.cfg.Medium.StartTX(b.cfg.ID, ack, 0)
	b.cfg.Kernel.AtCall(txEnd, b.ackDoneFn, ack)
}
