package dsme

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// capChannel is the radio channel of the contention access period; GTS
// coordinates map to channels 1..16.
const capChannel = 0

// gtsChannel maps a slot coordinate to its radio channel.
func gtsChannel(g superframe.GTS) uint8 { return uint8(g.Channel) + 1 }

// NodeConfig assembles a DSME node.
type NodeConfig struct {
	// ID is the node's address.
	ID frame.NodeID
	// Kernel, Medium and Clock are the scenario-shared substrates.
	Kernel *sim.Kernel
	Medium *radio.Medium
	Clock  *superframe.Clock
	// Parent is the next hop towards the sink (-1 for the sink itself).
	Parent frame.NodeID
	// Rng drives slot picks; required, private to this node.
	Rng *sim.Rand
	// Metrics aggregates network-wide counters; required.
	Metrics *Metrics
	// FramePool, when non-nil, recycles the node's frames: its handshake
	// commands and, through the GTS link, its ACKs, the data frames it
	// forwards and the primary frames it finishes. The pool must stay
	// symmetric, so the traffic source feeding the node must draw from the
	// same pool. It may be shared with the CAP engines of the same kernel.
	FramePool *frame.Pool
	// Scratch, when non-nil, slab-allocates the GTS link's transmit queue
	// (see mac.Config.Scratch).
	Scratch *mac.Scratch
}

// NodeStats are per-node DSME counters. The GTS link's own counters are
// its mac.Stats (Node.Base).
type NodeStats struct {
	// GTSIdle counts owned TX slots that passed without a queued packet.
	GTSIdle uint64
	// AllocStarted/AllocCompleted/AllocFailed and the Dealloc versions count
	// handshakes initiated by this node.
	AllocStarted, AllocCompleted, AllocFailed       uint64
	DeallocStarted, DeallocCompleted, DeallocFailed uint64
	// DuplicatesDetected counts overheard allocations colliding with owned
	// slots.
	DuplicatesDetected uint64
	// Starved counts controller rounds that found no free slot to request.
	Starved uint64
}

// handshake is the requester-side state (one at a time per node). The node
// keeps one record and reuses it for every handshake.
type handshake struct {
	id         uint32
	gts        superframe.GTS
	deallocate bool
	// req is the request frame while the CAP MAC still holds it; its fate
	// reaches the node through the OnFrameFinished hook.
	req   *frame.Frame
	timer sim.EventID
}

// responderPending is the responder-side state awaiting a notify, keyed in
// Node.pending. The notify-timeout event carries the record as its
// argument; records are recycled through the node's free list once that
// event has fired or been cancelled.
type responderPending struct {
	n     *Node
	key   hsKey
	gts   superframe.GTS
	timer sim.EventID
}

// hsKey names a handshake at its responder. Handshake IDs are numbered per
// requester, so only the pair is unique.
type hsKey struct {
	requester frame.NodeID
	id        uint32
}

// gtsSlot is the record of one GTS this node has owned, so the slot start,
// slot end and GTS transmit events all schedule through AtCall with the
// record as argument. Records are created when a slot is first armed and
// reused whenever the node owns the slot again; their grid index is the
// context word of the slot's data transmissions.
type gtsSlot struct {
	n     *Node
	g     superframe.GTS
	idx   int
	ch    uint8
	start sim.EventID
	// fails counts consecutive failed data transmissions in this TX slot;
	// deadSlotThreshold failures in a row mean the receiver is gone (e.g.
	// it rolled the slot back after a duplicate detection) and the slot is
	// returned.
	fails int
}

// Node is one DSME device: it owns the primary (GTS) data path and drives
// GTS (de)allocation handshakes as secondary traffic through its CAP MAC.
// It implements radio.Handler, demultiplexing GTS-channel frames from CAP
// frames before the CAP engine sees them.
//
// The GTS data path is a mac.Engine over an embedded mac.Base, the same
// link layer the CAP engines run on: immediate ACKs, duplicate rejection,
// forwarding (the node is the link's Router: every hop leads to its
// parent), the ACK timeout and the NR retry policy are the Base's. The
// node contributes only the access timing (one frame per owned TX slot)
// and the dead-slot watchdog its TxDone feeds.
type Node struct {
	link mac.Base
	cap  mac.Engine

	parent  frame.NodeID
	rng     *sim.Rand
	metrics *Metrics

	slots *SlotMap
	// slotRecs holds the record of every slot the node has armed, by grid
	// index.
	slotRecs map[int]*gtsSlot

	seq uint32
	// hsSeq numbers this node's handshakes. The numbers are unique per
	// requester only; responders key them by (requester, id).
	hsSeq uint32

	// hs is the running handshake (&hsRec), nil when none runs.
	hs       *handshake
	hsRec    handshake
	pending  map[hsKey]*responderPending
	pendFree []*responderPending
	// arrivals is the link's Enqueued+QueueDrops at the last control tick:
	// the controller's demand follows the primary frames offered to the
	// link, fresh and forwarded, dropped ones included.
	arrivals uint64
	demand   float64

	stats NodeStats
}

var (
	_ mac.Engine = (*Node)(nil)
	_ mac.Router = (*Node)(nil)
)

// NewNode builds the node. The CAP engine is attached afterwards with
// AttachCAP because its mac.Config needs the node's command hook.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Kernel == nil || cfg.Medium == nil || cfg.Clock == nil || cfg.Rng == nil || cfg.Metrics == nil {
		panic("dsme: Kernel, Medium, Clock, Rng and Metrics are required")
	}
	n := &Node{
		parent:   cfg.Parent,
		rng:      cfg.Rng,
		metrics:  cfg.Metrics,
		slotRecs: make(map[int]*gtsSlot),
		pending:  make(map[hsKey]*responderPending),
	}
	n.link.Init(mac.Config{
		ID:            cfg.ID,
		Kernel:        cfg.Kernel,
		Medium:        cfg.Medium,
		Clock:         cfg.Clock,
		FramePool:     cfg.FramePool,
		Scratch:       cfg.Scratch,
		MaxRetries:    mac.DefaultMaxRetries,
		Router:        n,
		OnSinkDeliver: n.primaryDelivered,
	}, n)
	n.slots = NewSlotMap(cfg.Clock.Config())
	return n
}

// CommandHook returns the OnCommand callback to install into the CAP
// engine's mac.Config.
func (n *Node) CommandHook() func(*frame.Frame) { return n.handleCommand }

// AttachCAP installs the CAP engine (whose mac.Config must carry this node's
// CommandHook).
func (n *Node) AttachCAP(e mac.Engine) { n.cap = e }

// CAP returns the attached CAP engine.
func (n *Node) CAP() mac.Engine { return n.cap }

// Base implements mac.Engine: the GTS link.
func (n *Node) Base() *mac.Base { return &n.link }

// Reboot implements mac.Engine by power-cycling the GTS link. DSME runs
// inject no faults, so the slot map and handshakes are left alone.
func (n *Node) Reboot() { n.link.Reboot() }

// Slots exposes the slot map for tests and reporting.
func (n *Node) Slots() *SlotMap { return n.slots }

// Stats returns a copy of the node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Start arms the CAP engine and the slot controller.
func (n *Node) Start() {
	if n.cap == nil {
		panic(fmt.Sprintf("dsme: node %d has no CAP engine attached", n.link.ID()))
	}
	n.cap.Start()
	if n.parent >= 0 {
		// Desynchronize controllers across nodes.
		period := n.link.Clock().Config().MultiframeDuration()
		first := period + sim.Time(n.rng.Intn(int(period)))
		n.link.Kernel().AtCall(first, nodeControlTick, n)
	}
}

// Enqueue implements traffic.Enqueuer for primary data: frames queue on the
// GTS link for transmission towards the parent.
func (n *Node) Enqueue(f *frame.Frame) bool {
	if n.parent < 0 {
		return false
	}
	f.Src = n.link.ID()
	f.Dst = n.parent
	n.metrics.notePrimaryGenerated(f)
	return n.link.Enqueue(f)
}

// Deliver implements radio.Handler: GTS-channel frames belong to the GTS
// link, everything else goes to the CAP engine (after broadcast-delivery
// accounting for the secondary PDR metric).
func (n *Node) Deliver(f *frame.Frame) {
	if f.Channel != capChannel {
		n.link.Deliver(f)
		return
	}
	if f.IsBroadcast() {
		switch f.Kind {
		case frame.GTSResponse, frame.GTSNotify, frame.RouteDiscovery:
			n.metrics.noteBroadcastReceived(f, n.link.Medium())
		}
	}
	n.cap.Deliver(f)
}

// ---- Primary path: GTS data ----------------------------------------------

// NextHop implements mac.Router for the GTS link: every primary frame
// travels towards the node's parent.
func (n *Node) NextHop(_, _ frame.NodeID) (frame.NodeID, bool) {
	return n.parent, n.parent >= 0
}

// primaryDelivered is the GTS link's OnSinkDeliver hook.
func (n *Node) primaryDelivered(f *frame.Frame) {
	n.metrics.notePrimaryDelivered(f, n.link.Kernel().Now())
}

// gtsSlotStart, gtsSlotEnd and gtsSlotTransmit are the long-lived kernel
// callbacks of the GTS path; the slot record is the event argument.
func gtsSlotStart(a any)    { r := a.(*gtsSlot); r.n.slotStart(r) }
func gtsSlotEnd(a any)      { r := a.(*gtsSlot); r.n.slotEnd(r) }
func gtsSlotTransmit(a any) { r := a.(*gtsSlot); r.n.gtsTransmit(r) }

// armSlot schedules the next occurrence of an owned slot.
func (n *Node) armSlot(g superframe.GTS) {
	idx := g.Index(n.link.Clock().Config())
	r := n.slotRecs[idx]
	if r == nil {
		r = &gtsSlot{n: n, g: g, idx: idx, ch: gtsChannel(g)}
		n.slotRecs[idx] = r
	}
	n.rearm(r)
}

// rearm schedules r's next occurrence, replacing a pending one.
func (n *Node) rearm(r *gtsSlot) {
	r.start.Cancel()
	at := n.link.Clock().NextGTSStart(n.link.Kernel().Now(), r.g)
	r.start = n.link.Kernel().AtCall(at, gtsSlotStart, r)
}

// disarmSlot cancels the pending occurrence of a slot.
func (n *Node) disarmSlot(g superframe.GTS) {
	if r := n.slotRecs[g.Index(n.link.Clock().Config())]; r != nil {
		r.start.Cancel()
	}
}

// slotStart runs at the beginning of an owned GTS occurrence.
func (n *Node) slotStart(r *gtsSlot) {
	st := n.slots.State(r.g)
	if st != SlotTX && st != SlotRX {
		return // ownership was lost; the chain dies here
	}
	n.link.Medium().SetTuned(n.link.ID(), r.ch)
	now := n.link.Kernel().Now()
	n.link.Kernel().AtCall(now+n.link.Clock().GTSDuration(), gtsSlotEnd, r)
	if st == SlotTX {
		// Transmit after a turnaround-sized guard so that the receiver's
		// tuning event at the same slot boundary has settled.
		n.link.Kernel().AtCall(now+frame.TurnaroundTime, gtsSlotTransmit, r)
	}
}

// slotEnd retunes to the CAP channel at the end of an owned GTS occurrence
// and arms the next one while the node still owns the slot.
func (n *Node) slotEnd(r *gtsSlot) {
	if n.link.Medium().Tuned(n.link.ID()) == r.ch {
		n.link.Medium().SetTuned(n.link.ID(), capChannel)
	}
	if s := n.slots.State(r.g); s == SlotTX || s == SlotRX {
		n.rearm(r)
	}
}

// gtsTransmit sends the link's queue head in the owned slot ("a single
// packet is transmitted per GTS", §6.3), with the slot's grid index as the
// transmission's context word.
func (n *Node) gtsTransmit(r *gtsSlot) {
	if n.slots.State(r.g) != SlotTX {
		return
	}
	f := n.link.Queue().Head()
	if f == nil {
		n.stats.GTSIdle++
		return
	}
	f.Channel = r.ch
	n.link.SendFrameAt(f, 0, uint32(r.idx))
}

// TxDone implements mac.Engine: the outcome of a GTS data transmission
// feeds the dead-slot watchdog of its slot, then the link's retry policy.
func (n *Node) TxDone(f *frame.Frame, ctx uint32, success bool) {
	n.noteSlotOutcome(n.slotRecs[int(ctx)], success)
	n.link.FinishFrame(f, success)
}

// maxTxSlots caps the slots one node may hold towards its parent: one
// CFP's worth.
const maxTxSlots = superframe.CFPSlots

// neighborExpirySuperframes is how long, in superframes, overheard
// allocations stay in the slot map without being refreshed (64 ≈ 7.9 s).
const neighborExpirySuperframes = 64

// handshakeTimeoutSuperframes bounds each handshake wait, the requester's
// for the response and the responder's for the notify: 16 superframes.
// Handshake messages contend in the CAP; during QMA's cold start a response
// can take seconds to get out (exploration-driven bootstrap), so the
// timeout is generous.
const handshakeTimeoutSuperframes = 16

// handshakeTimeout is handshakeTimeoutSuperframes on the node's clock.
func (n *Node) handshakeTimeout() sim.Time {
	return handshakeTimeoutSuperframes * n.link.Clock().Config().SuperframeDuration()
}

// deadSlotThreshold is the number of consecutive unacknowledged data
// transmissions after which a TX slot is considered dead and returned. The
// receiving side may have rolled the slot back (duplicate detection) without
// the transmitter being able to hear about it; the watchdog heals such
// asymmetries.
const deadSlotThreshold = 8

// noteSlotOutcome feeds the dead-slot watchdog of slot r.
func (n *Node) noteSlotOutcome(r *gtsSlot, success bool) {
	if success {
		r.fails = 0
		return
	}
	r.fails++
	if r.fails >= deadSlotThreshold && n.hs == nil && n.slots.State(r.g) == SlotTX {
		r.fails = 0
		n.startDeallocation(r.g)
	}
}

// ---- Slot controller ------------------------------------------------------

// nodeControlTick is the long-lived kernel callback of the slot controller.
func nodeControlTick(a any) { a.(*Node).controlTick() }

// controlTick evaluates slot demand once per multi-superframe and starts at
// most one handshake. Demand follows an EWMA of arrivals per
// multi-superframe with a 30% provisioning margin, plus an extra slot while
// the queue is backlogged — fluctuating primary traffic therefore causes a
// continuous stream of (de)allocations, the paper's secondary-traffic
// workload.
func (n *Node) controlTick() {
	sf := n.link.Clock().Config()
	now := n.link.Kernel().Now()
	n.link.Kernel().AtCall(now+sf.MultiframeDuration(), nodeControlTick, n)
	n.slots.ExpireNeighbors(now - neighborExpirySuperframes*sf.SuperframeDuration())

	st := n.link.Stats()
	arrivals := st.Enqueued + st.QueueDrops
	n.demand = 0.75*n.demand + 0.25*float64(arrivals-n.arrivals)
	n.arrivals = arrivals

	queued := n.link.Queue().Len()
	target := int(n.demand*1.3 + 0.999)
	if queued >= 2 {
		target++
	}
	if queued > 0 && target < 1 {
		target = 1
	}
	if target > maxTxSlots {
		target = maxTxSlots
	}

	if n.hs != nil {
		return // one handshake at a time
	}
	own := n.slots.Count(SlotTX)
	switch {
	case own < target:
		n.startAllocation()
	case own > target+1 && own > 0 && queued == 0:
		// Oversupplied by more than the hysteresis slack and drained: give a
		// slot back. The slack keeps steady-state traffic from thrashing
		// between allocate and deallocate on Poisson noise.
		g, _ := n.slots.Nth(SlotTX, n.rng.Intn(own))
		n.startDeallocation(g)
	}
}

// pickFreeSlot draws a random free slot at a time coordinate where the node
// holds or negotiates no other — one radio cannot serve two channels at once.
func (n *Node) pickFreeSlot() (superframe.GTS, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		g, ok := n.slots.PickFree(n.rng.Intn(1 << 20))
		if !ok {
			return superframe.GTS{}, false
		}
		if !n.slots.TimeTaken(g) {
			return g, true
		}
	}
	return superframe.GTS{}, false
}

func (n *Node) nextSeq() uint32 { n.seq++; return n.seq }

// startAllocation begins the 3-way handshake for a fresh slot (Fig. 24).
func (n *Node) startAllocation() {
	g, ok := n.pickFreeSlot()
	if !ok {
		n.stats.Starved++
		return
	}
	hs := n.beginHandshake(g, false)
	n.stats.AllocStarted++
	n.slots.Set(g, SlotPending, n.parent)
	n.sendRequest(hs)
}

// startDeallocation begins the 3-way handshake that returns a slot ("GTS
// deallocation is rolled back using the same 3-way handshake", App. A).
func (n *Node) startDeallocation(g superframe.GTS) {
	hs := n.beginHandshake(g, true)
	n.stats.DeallocStarted++
	n.sendRequest(hs)
}

// beginHandshake resets the node's handshake record for a fresh handshake
// over g and makes it the running one.
func (n *Node) beginHandshake(g superframe.GTS, deallocate bool) *handshake {
	n.hsSeq++
	n.hsRec = handshake{id: n.hsSeq, gts: g, deallocate: deallocate}
	n.hs = &n.hsRec
	return n.hs
}

// command takes a pooled frame and fills in a broadcast or unicast GTS
// command from this node.
func (n *Node) command(kind frame.Kind, dst frame.NodeID, mpdu int, cmd frame.Command) *frame.Frame {
	f := n.link.FramePool().Get()
	f.Kind = kind
	f.Src = n.link.ID()
	f.Dst = dst
	f.Origin = n.link.ID()
	f.Sink = dst
	f.Seq = n.nextSeq()
	f.MPDUBytes = mpdu
	f.CreatedAt = n.link.Kernel().Now()
	f.Cmd = cmd
	return f
}

// enqueueCommand hands a command frame to the CAP MAC, returning it to the
// pool when the transmit queue rejects it.
func (n *Node) enqueueCommand(f *frame.Frame) bool {
	if n.cap.Enqueue(f) {
		return true
	}
	n.link.FramePool().Put(f)
	return false
}

func (n *Node) sendRequest(hs *handshake) {
	hs.req = n.command(frame.GTSRequest, n.parent, RequestMPDU,
		frame.Command{ID: hs.id, GTS: hs.gts, Deallocate: hs.deallocate})
	n.metrics.noteRequestSent(hs.req)
	if !n.enqueueCommand(hs.req) {
		hs.req = nil
		n.requesterFail(hs)
	}
}

// capFrameFinished is the OnFrameFinished hook RunScenario installs into
// the node's CAP engine. Only the running handshake's request matters:
// acknowledged, the node waits for the broadcast response; dropped, the
// handshake fails.
func (n *Node) capFrameFinished(f *frame.Frame, acked bool) {
	hs := n.hs
	if hs == nil || hs.req != f {
		return
	}
	hs.req = nil
	if !acked {
		n.requesterFail(hs)
		return
	}
	n.metrics.noteRequestAcked(f)
	hs.timer = n.link.Kernel().AtCall(n.link.Kernel().Now()+n.handshakeTimeout(), responseTimeout, n)
}

// responseTimeout and notifyTimeout are the static kernel callbacks of the
// handshake deadlines. Every path that ends a handshake cancels its
// deadline, so a deadline that fires still belongs to the running one.
func responseTimeout(a any) {
	if n := a.(*Node); n.hs != nil {
		n.requesterFail(n.hs)
	}
}

func notifyTimeout(a any) {
	p := a.(*responderPending)
	n := p.n
	if n.pending[p.key] != p {
		return // superseded by a later request under the same key
	}
	delete(n.pending, p.key)
	if n.slots.State(p.gts) == SlotPending {
		n.slots.Clear(p.gts)
	}
	n.pendFree = append(n.pendFree, p)
}

// requesterFail rolls the requester side back.
func (n *Node) requesterFail(hs *handshake) {
	hs.timer.Cancel()
	if !hs.deallocate && n.slots.State(hs.gts) == SlotPending {
		n.slots.Clear(hs.gts)
	}
	if hs.deallocate {
		n.stats.DeallocFailed++
	} else {
		n.stats.AllocFailed++
	}
	n.hs = nil
}

// ---- Command handling (CAP side) -----------------------------------------

func (n *Node) handleCommand(f *frame.Frame) {
	switch f.Kind {
	case frame.GTSRequest:
		if f.Dst == n.link.ID() {
			n.handleRequest(f.Src, f.Cmd)
		}
	case frame.GTSResponse:
		n.handleResponse(f.Cmd)
	case frame.GTSNotify:
		n.handleNotify(f.Cmd)
	}
}

// handleRequest is the responder side of the handshake.
func (n *Node) handleRequest(from frame.NodeID, req frame.Command) {
	approved := true
	if req.Deallocate {
		if n.slots.State(req.GTS) == SlotRX && n.slots.Peer(req.GTS) == from {
			n.disarmSlot(req.GTS)
			n.slots.Clear(req.GTS)
		}
	} else {
		if n.slots.State(req.GTS) != SlotFree || n.slots.TimeTaken(req.GTS) {
			approved = false
		} else {
			n.slots.Set(req.GTS, SlotPending, from)
			pend := n.newPending()
			pend.key = hsKey{requester: from, id: req.ID}
			pend.gts = req.GTS
			pend.timer = n.link.Kernel().AtCall(n.link.Kernel().Now()+n.handshakeTimeout(), notifyTimeout, pend)
			n.pending[pend.key] = pend
		}
	}
	resp := n.command(frame.GTSResponse, frame.Broadcast, ResponseMPDU, frame.Command{
		ID: req.ID, GTS: req.GTS,
		Requester: from, Responder: n.link.ID(),
		Approved: approved, Deallocate: req.Deallocate,
	})
	n.metrics.noteBroadcastSent(resp)
	n.enqueueCommand(resp)
}

// newPending takes a responder record from the free list, or allocates one.
func (n *Node) newPending() *responderPending {
	if k := len(n.pendFree); k > 0 {
		p := n.pendFree[k-1]
		n.pendFree = n.pendFree[:k-1]
		return p
	}
	return &responderPending{n: n}
}

// handleResponse serves both the requester (continue the handshake) and
// overhearing neighbours (update the slot map, detect duplicates).
func (n *Node) handleResponse(resp frame.Command) {
	if resp.Requester == n.link.ID() {
		hs := n.hs
		if hs == nil || hs.id != resp.ID {
			return
		}
		hs.timer.Cancel()
		if !resp.Approved {
			// Duplicate at the responder: remember the slot as taken and
			// retry with another at the next control tick.
			n.slots.Set(hs.gts, SlotNeighbor, -1)
			n.stats.AllocFailed++
			n.hs = nil
			// Close the disapproved handshake so the responder's
			// neighbourhood releases the tentatively marked slot: a
			// deallocate-notify for the same id.
			n.sendNotify(hs.id, hs.gts, true, resp.Responder)
			return
		}
		if hs.deallocate {
			n.disarmSlot(hs.gts)
			n.slots.Clear(hs.gts)
			n.stats.DeallocCompleted++
		} else {
			n.slots.Set(hs.gts, SlotTX, resp.Responder)
			n.armSlot(hs.gts)
			n.stats.AllocCompleted++
		}
		n.hs = nil
		n.sendNotify(hs.id, hs.gts, hs.deallocate, resp.Responder)
		return
	}
	n.observeForeign(resp.GTS, resp.Approved && !resp.Deallocate, resp.Deallocate)
}

func (n *Node) sendNotify(id uint32, g superframe.GTS, deallocate bool, responder frame.NodeID) {
	nf := n.command(frame.GTSNotify, frame.Broadcast, NotifyMPDU, frame.Command{
		ID: id, GTS: g,
		Requester: n.link.ID(), Responder: responder,
		Deallocate: deallocate,
	})
	n.metrics.noteBroadcastSent(nf)
	n.enqueueCommand(nf)
}

// handleNotify finalizes the responder side and updates overhearers.
func (n *Node) handleNotify(nf frame.Command) {
	if nf.Responder == n.link.ID() {
		key := hsKey{requester: nf.Requester, id: nf.ID}
		pend := n.pending[key]
		if pend != nil {
			pend.timer.Cancel()
			delete(n.pending, key)
			if nf.Deallocate {
				if n.slots.State(pend.gts) == SlotPending {
					n.slots.Clear(pend.gts)
				}
			} else if n.slots.State(pend.gts) == SlotPending {
				n.slots.Set(pend.gts, SlotRX, key.requester)
				n.armSlot(pend.gts)
			}
			n.pendFree = append(n.pendFree, pend)
		}
		return
	}
	n.observeForeign(nf.GTS, !nf.Deallocate, nf.Deallocate)
}

// observeForeign applies an overheard (de)allocation to the local map and
// detects duplicate allocations against owned slots (App. A: "If any of A's
// or B's neighbours have already allocated the GTS ... the GTS allocation is
// rolled back").
func (n *Node) observeForeign(g superframe.GTS, allocated, deallocated bool) {
	st := n.slots.State(g)
	switch {
	case allocated && (st == SlotTX || st == SlotRX):
		n.stats.DuplicatesDetected++
		n.metrics.noteDuplicate(n.link.Kernel().Now())
		if st == SlotTX && n.hs == nil {
			n.startDeallocation(g)
		} else if st == SlotRX {
			n.disarmSlot(g)
			n.slots.Clear(g)
		}
	case allocated:
		n.slots.MarkNeighbor(g, n.link.Kernel().Now())
	case deallocated && st == SlotNeighbor:
		n.slots.Clear(g)
	}
}
