package radio

import (
	"fmt"
	"math"
	"slices"

	"qma/internal/frame"
	"qma/internal/sim"
)

// Handler receives every frame a node successfully decodes, whether or not
// the frame is addressed to it (overheard frames drive QMA's QBackoff
// reward). MAC engines implement Handler.
type Handler interface {
	Deliver(f *frame.Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(f *frame.Frame)

// Deliver implements Handler.
func (h HandlerFunc) Deliver(f *frame.Frame) { h(f) }

// transmission tracks one frame on the air. Transmissions are pooled by
// their medium: endTX returns them (with their slices' capacity) to the
// freelist, so a steady-state simulation stops allocating per transmission.
type transmission struct {
	src     frame.NodeID
	f       *frame.Frame
	channel uint8
	start   sim.Time
	end     sim.Time
	// powerDB is the transmission's power reduction below the topology's
	// reference power, in dB (0 = reference/maximum power).
	powerDB float64
	// corrupt[i] is true when the reception at decode-neighbour i collided
	// or the receiver was transmitting; indexed parallel to receivers.
	corrupt []bool
	// contested[i] is true when another transmission overlapped this
	// reception at some point (capture bookkeeping: a reception delivered
	// despite contested[i] was captured); indexed parallel to receivers.
	// Only populated while capture is enabled — readers guard the index so
	// a transmission started before SetCaptureThreshold stays valid (it
	// can collide but never count as captured).
	contested []bool
	// receivers are the decode-neighbours of src tuned to the frame's
	// channel at transmission start.
	receivers []frame.NodeID
	// sensed are the nodes whose busy counters this transmission raised,
	// captured at transmission start. busyEnd lowers exactly this set, so
	// the counters stay consistent even when churn or mobility re-classify
	// the sender's sense links while the frame is on the air.
	sensed []frame.NodeID
}

// NodeStats aggregates per-node medium-level counters.
type NodeStats struct {
	// TxCount is the number of started transmissions.
	TxCount uint64
	// TxAirtime is the cumulative on-air time.
	TxAirtime sim.Time
	// RxDelivered counts successfully decoded frames (any destination).
	RxDelivered uint64
	// RxCollided counts receptions lost to collisions or half-duplex.
	RxCollided uint64
	// RxCaptured counts receptions that were delivered although at least one
	// other transmission overlapped them — the strongest frame cleared the
	// SINR capture threshold. Always 0 while capture is disabled.
	RxCaptured uint64
	// RxFaded counts receptions lost to random link loss.
	RxFaded uint64
	// CCACount counts clear channel assessments performed.
	CCACount uint64
	// CCABusy counts CCAs that reported a busy channel.
	CCABusy uint64
}

// Accumulate adds another node's counters into s — the sharded runner's
// per-cell radio aggregation.
func (s *NodeStats) Accumulate(o NodeStats) {
	s.TxCount += o.TxCount
	s.TxAirtime += o.TxAirtime
	s.RxDelivered += o.RxDelivered
	s.RxCollided += o.RxCollided
	s.RxCaptured += o.RxCaptured
	s.RxFaded += o.RxFaded
	s.CCACount += o.CCACount
	s.CCABusy += o.CCABusy
}

// Medium is the shared wireless channel. It is bound to one simulation
// kernel and is not safe for concurrent use.
//
// Memory is O(N + E): the decode and sense link sets are materialized once
// at construction as per-node rows over one backing array per direction,
// and clear channel assessment reads a per-node, per-channel busy counter
// maintained incrementally at transmission start/end instead of scanning
// the set of ongoing transmissions.
type Medium struct {
	k    *sim.Kernel
	topo Topology
	rng  *sim.Rand

	handlers []Handler
	stats    []NodeStats
	// tuned[i] is the channel node i's receiver is currently tuned to
	// (0, the common CAP channel, by default).
	tuned []uint8
	// txUntil[i] is the end of node i's current transmission (0 if idle).
	txUntil []sim.Time
	// rxCount[i] is the number of decodable transmissions currently
	// overlapping at node i.
	rxCount []int
	// inflight[i] are the transmissions currently decodable at node i.
	inflight [][]*transmission

	// decode[i] lists node i's decode-neighbours and sense[i] the nodes whose
	// CCA senses i's transmissions (see classify), both ascending.
	// Each row is a full-capacity view into one backing array per direction
	// that NewMedium builds; churn and mobility edit the rows in place, and
	// an insert past a row's capacity reallocates only that row.
	decode, sense [][]frame.NodeID

	// busy[i][ch] counts ongoing transmissions a CCA at node i on channel ch
	// detects. Inner slices grow to the highest channel actually used at i.
	busy [][]int32

	// captureDB is the receiver-side SINR capture threshold in dB; <= 0
	// disables capture, in which case any overlap corrupts every involved
	// reception exactly as the pre-capture medium did.
	captureDB float64

	// txByPower accumulates per-node TX airtime at reduced power levels,
	// lazily allocated on the first reduced-power transmission. Airtime at
	// the reference power is NodeStats.TxAirtime minus the listed rows.
	txByPower [][]PowerAirtime

	// Dynamics state, nil until the first SetFadeUntil, SetPresent or
	// MoveNode: present[i] is false while node i has left the network;
	// fadeUntil[i] marks a scheduled deep fade at node i; ge is the optional
	// Gilbert–Elliott burst-error process. All of it is opt-in: with no
	// dynamics configured the hot paths consume the exact same random draws.
	present   []bool
	fadeUntil []sim.Time
	ge        *geProcess
	// moveBufA/moveBufB are scratch candidate buffers for MoveNode and
	// SetPresent, retained across calls.
	moveBufA, moveBufB []frame.NodeID

	// txPool recycles transmission structs; endTXFn is the long-lived
	// callback StartTX schedules through Kernel.AtCall so ending a
	// transmission needs no per-call closure. busyEndFn retires the busy
	// counters via AtCallEarly: it runs before every normal event sharing
	// the end timestamp, so a CCA at exactly t.end already sees the channel
	// clear — the same half-open [start, end) semantics the former scan over
	// the active set implemented with its strict `end > now` check.
	txPool    []*transmission
	endTXFn   func(any)
	busyEndFn func(any)

	// txObserver, when set, observes every transmission start (the sharded
	// runner's edge-transmission recorder); foreignPool and the foreign
	// start/end callbacks back ScheduleForeignBusy, the cross-shard
	// busy-mirroring primitive. See foreign.go.
	txObserver     TxObserver
	foreignPool    []*foreignTX
	foreignStartFn func(any)
	foreignEndFn   func(any)

	// invariantChecks enables the opt-in runtime self-checks (busy counters
	// must never go negative). Tests and fuzz harnesses enable them.
	invariantChecks bool

	// airTxCount/airBusyTime accumulate the medium-wide congestion picture:
	// every started transmission and its airtime, regardless of outcome.
	// Overlapping transmissions count separately, so a load estimator diffing
	// airBusyTime against wall time reads values above 1 exactly when the
	// channel is contested — the signal the access-barring controller
	// (internal/barring) feeds on.
	airTxCount  uint64
	airBusyTime sim.Time
}

// NewMedium builds a medium over the given topology. rng drives
// probabilistic link loss and must be private to this medium.
//
// Construction enumerates each node's candidate links through
// Topology.AppendLinks and classifies them by Topology.LinkSignal's margins,
// so it runs in O(N + E). The link arrays are computed at the reference
// (maximum) power; a reduced-power transmission filters its receiver and
// sensed sets through the same margins at StartTX.
func NewMedium(k *sim.Kernel, topo Topology, rng *sim.Rand) *Medium {
	n := topo.NumNodes()
	m := &Medium{
		k:        k,
		topo:     topo,
		rng:      rng,
		handlers: make([]Handler, n),
		stats:    make([]NodeStats, n),
		tuned:    make([]uint8, n),
		txUntil:  make([]sim.Time, n),
		rxCount:  make([]int, n),
		inflight: make([][]*transmission, n),
		busy:     make([][]int32, n),
	}
	var buf, decodeArr, senseArr []frame.NodeID
	decodeEnd, senseEnd := make([]int32, n), make([]int32, n)
	for src := frame.NodeID(0); int(src) < n; src++ {
		buf = topo.AppendLinks(src, buf[:0])
		for _, dst := range buf {
			decode, sense := classify(topo, src, dst)
			if decode {
				decodeArr = append(decodeArr, dst)
			}
			if sense {
				senseArr = append(senseArr, dst)
			}
		}
		decodeEnd[src], senseEnd[src] = int32(len(decodeArr)), int32(len(senseArr))
	}
	m.decode, m.sense = rowViews(decodeArr, decodeEnd), rowViews(senseArr, senseEnd)
	m.endTXFn = func(a any) { m.endTX(a.(*transmission)) }
	m.busyEndFn = func(a any) { m.busyEnd(a.(*transmission)) }
	return m
}

// Attach registers the handler for node id. It must be called once per node
// before any transmission.
func (m *Medium) Attach(id frame.NodeID, h Handler) {
	if m.handlers[id] != nil {
		panic(fmt.Sprintf("radio: node %d attached twice", id))
	}
	m.handlers[id] = h
}

// Stats returns a copy of the counters for node id.
func (m *Medium) Stats(id frame.NodeID) NodeStats { return m.stats[id] }

// ChannelLoad reports the medium-wide congestion counters: the number of
// transmissions ever started and their cumulative airtime (overlaps counted
// separately). Congestion estimators diff successive readings; dividing the
// airtime delta by the observation interval yields the channel-occupancy
// fraction barring.Observation.BusyFraction carries.
func (m *Medium) ChannelLoad() (txCount uint64, busyAirtime sim.Time) {
	return m.airTxCount, m.airBusyTime
}

// SetTuned switches node id's receiver to the given channel. Receptions in
// flight on the previous channel are lost (their delivery check happens at
// transmission end against the then-current tuning).
func (m *Medium) SetTuned(id frame.NodeID, channel uint8) { m.tuned[id] = channel }

// Tuned reports the channel node id's receiver listens on.
func (m *Medium) Tuned(id frame.NodeID) uint8 { return m.tuned[id] }

// Transmitting reports whether node id is currently transmitting.
func (m *Medium) Transmitting(id frame.NodeID) bool {
	return m.txUntil[id] > m.k.Now()
}

// CCA performs a clear channel assessment at node id and reports true when
// the channel the node is tuned to is clear. Busy means some ongoing
// same-channel transmission is above the node's energy-detection threshold.
// The check is O(1): it reads the per-node busy counter maintained by
// StartTX/busyEnd. A node must not CCA while transmitting.
func (m *Medium) CCA(id frame.NodeID) bool {
	m.stats[id].CCACount++
	if ch := int(m.tuned[id]); ch < len(m.busy[id]) && m.busy[id][ch] > 0 {
		m.stats[id].CCABusy++
		return false
	}
	return true
}

// StartTX puts f on the air from src at the given power level and returns
// the transmission end time. reduceDB is the transmit power reduction below
// the topology's reference (maximum) power in dB: 0 transmits at reference
// power and reproduces the pre-power medium exactly; a positive reduction
// shrinks the receiver and sensed sets to the links whose LinkSignal margins
// tolerate the delta. The caller (MAC) is responsible for scheduling its own
// post-TX logic (ACK waits etc). Panics if src is already transmitting — MAC
// engines must serialize their own transmissions — or on a negative
// reduction. Cost is O(degree of src).
func (m *Medium) StartTX(src frame.NodeID, f *frame.Frame, reduceDB float64) sim.Time {
	now := m.k.Now()
	if m.txUntil[src] > now {
		panic(fmt.Sprintf("radio: node %d starts TX while transmitting (until %v, now %v)", src, m.txUntil[src], now))
	}
	if reduceDB < 0 {
		panic(fmt.Sprintf("radio: node %d transmits above the reference power (reduceDB=%v)", src, reduceDB))
	}
	dur := f.Duration()
	end := now + dur
	m.txUntil[src] = end
	m.stats[src].TxCount++
	m.stats[src].TxAirtime += dur
	m.airTxCount++
	m.airBusyTime += dur
	if reduceDB > 0 {
		m.noteTxPower(src, reduceDB, dur)
	}

	t := m.getTransmission()
	t.src = src
	t.f = f
	t.channel = f.Channel
	t.start = now
	t.end = end
	t.powerDB = reduceDB
	// Only neighbours tuned to the frame's channel at transmission start can
	// synchronize on it (eligibility is captured at the start; a receiver
	// retuning mid-flight loses the frame through the end-of-transmission
	// tuning check instead). A reduced-power frame additionally reaches only
	// the decode links whose margin covers the reduction.
	capture := m.captureDB > 0
	for _, r := range m.decode[src] {
		if reduceDB > 0 {
			if _, decodeMargin, _ := m.topo.LinkSignal(src, r); decodeMargin < reduceDB {
				continue
			}
		}
		if m.tuned[r] == f.Channel {
			t.receivers = append(t.receivers, r)
			t.corrupt = append(t.corrupt, false)
			if capture {
				t.contested = append(t.contested, false)
			}
		}
	}

	// Raise the busy counters at every node that senses src, on the frame's
	// channel; busyEnd lowers them again just before the end timestamp's
	// normal events run. The set is snapshotted on the transmission so the
	// counters balance even if dynamics rewrite the sense links mid-flight.
	// A reduced-power frame stays below the energy-detection threshold of
	// the sense links whose margin is smaller than the reduction.
	for _, r := range m.sense[src] {
		if reduceDB > 0 {
			if _, _, senseMargin := m.topo.LinkSignal(src, r); senseMargin < reduceDB {
				continue
			}
		}
		t.sensed = append(t.sensed, r)
		m.busyAdd(r, f.Channel, 1)
	}

	// A transmitter cannot receive: corrupt everything in flight at src.
	m.corruptAllAt(src)

	for i, r := range t.receivers {
		// Half-duplex receiver or an already-busy channel at r corrupts this
		// reception; a new arrival also corrupts whatever r was receiving —
		// unless capture resolution lets the strongest overlapping frame
		// survive.
		if m.txUntil[r] > now {
			t.corrupt[i] = true
		}
		if m.rxCount[r] > 0 {
			if capture {
				m.resolveCapture(r, t, i)
			} else {
				t.corrupt[i] = true
				m.corruptAllAt(r)
			}
		}
		m.rxCount[r]++
		m.inflight[r] = append(m.inflight[r], t)
	}

	m.k.AtCallEarly(end, m.busyEndFn, t)
	m.k.AtCall(end, m.endTXFn, t)
	if m.txObserver != nil {
		m.txObserver(src, f.Channel, now, end)
	}
	return end
}

// SetCaptureThreshold enables receiver-side SINR capture: when transmissions
// overlap at a receiver, the strongest frame still decodes iff its power
// exceeds the sum of all overlapping interferers by at least thresholdDB;
// ties and below-threshold overlaps corrupt every involved reception exactly
// as without capture. thresholdDB <= 0 disables capture (the default).
func (m *Medium) SetCaptureThreshold(thresholdDB float64) {
	m.captureDB = thresholdDB
}

// CaptureThreshold reports the configured SINR capture threshold in dB
// (<= 0: capture disabled).
func (m *Medium) CaptureThreshold() float64 { return m.captureDB }

// captureEpsilonDB absorbs the float rounding of the dB→linear→dB round
// trip, so a power gap exactly equal to the threshold captures reliably
// (the documented ">= threshold" boundary).
const captureEpsilonDB = 1e-9

// rxPowerDBmAt reports the received power of t at r under the current
// topology state, combining the link's reference-power signal with the
// transmission's own power reduction.
func (m *Medium) rxPowerDBmAt(t *transmission, r frame.NodeID) float64 {
	rx, _, _ := m.topo.LinkSignal(t.src, r)
	return rx - t.powerDB
}

// resolveCapture applies the SINR capture rule at receiver r when tNew
// (whose receiver index is iNew) arrives while other transmissions are in
// flight there: the strongest frame of the overlap set survives iff its
// power clears the linear sum of all the others by the capture threshold;
// every other frame — and the strongest too, below threshold — is marked
// corrupt. Corruption is one-way: a frame that already lost (half-duplex,
// an earlier overlap) is never rescued, it merely keeps contributing
// interference. Later arrivals re-run the resolution, so a capture winner
// can still be beaten by a stronger frame starting during its tail.
func (m *Medium) resolveCapture(r frame.NodeID, tNew *transmission, iNew int) {
	strongest := tNew
	strongestDBm := m.rxPowerDBmAt(tNew, r)
	var sumMilliwatt float64 // linear power of every non-strongest frame
	for _, t := range m.inflight[r] {
		p := m.rxPowerDBmAt(t, r)
		if p > strongestDBm {
			sumMilliwatt += math.Pow(10, strongestDBm/10)
			strongest, strongestDBm = t, p
		} else {
			sumMilliwatt += math.Pow(10, p/10)
		}
	}
	captured := strongestDBm-10*math.Log10(sumMilliwatt) >= m.captureDB-captureEpsilonDB
	for _, t := range m.inflight[r] {
		m.markContested(t, r, t == strongest && captured)
	}
	tNew.contested[iNew] = true
	if tNew != strongest || !captured {
		tNew.corrupt[iNew] = true
	}
}

// markContested records that an overlap touched t's reception at r and,
// unless t survives this resolution, marks it corrupt. Transmissions
// started before capture was enabled carry no contested slots; they still
// corrupt normally but can never be counted as captured.
func (m *Medium) markContested(t *transmission, r frame.NodeID, survives bool) {
	for i, rr := range t.receivers {
		if rr != r {
			continue
		}
		if i < len(t.contested) {
			t.contested[i] = true
		}
		if !survives {
			t.corrupt[i] = true
		}
	}
}

// PowerAirtime is cumulative transmit airtime at one power level, expressed
// as the reduction below the topology's reference power.
type PowerAirtime struct {
	// ReduceDB is the power reduction below the reference power, in dB.
	ReduceDB float64
	// Airtime is the cumulative on-air time at this power.
	Airtime sim.Time
}

// noteTxPower folds a reduced-power transmission into the per-node airtime
// breakdown (reduced levels only; reference-power airtime is derived as the
// remainder of NodeStats.TxAirtime).
func (m *Medium) noteTxPower(src frame.NodeID, reduceDB float64, dur sim.Time) {
	if m.txByPower == nil {
		m.txByPower = make([][]PowerAirtime, len(m.handlers))
	}
	row := m.txByPower[src]
	for i := range row {
		if row[i].ReduceDB == reduceDB {
			row[i].Airtime += dur
			return
		}
	}
	m.txByPower[src] = append(row, PowerAirtime{ReduceDB: reduceDB, Airtime: dur})
}

// TxAirtimeByPower reports node id's transmit airtime broken down by power
// level: the reference-power remainder first (ReduceDB 0), then every
// reduced level in first-use order. It returns nil when no reduced-power
// transmission ever happened on this medium, so single-power runs pay no
// per-node allocation.
func (m *Medium) TxAirtimeByPower(id frame.NodeID) []PowerAirtime {
	if m.txByPower == nil {
		return nil
	}
	var reduced sim.Time
	for _, pa := range m.txByPower[id] {
		reduced += pa.Airtime
	}
	out := make([]PowerAirtime, 0, len(m.txByPower[id])+1)
	out = append(out, PowerAirtime{ReduceDB: 0, Airtime: m.stats[id].TxAirtime - reduced})
	return append(out, m.txByPower[id]...)
}

// busyAdd adjusts node id's busy counter for ch, growing the per-node
// channel slice on first use of a high channel.
func (m *Medium) busyAdd(id frame.NodeID, ch uint8, delta int32) {
	b := m.busy[id]
	for int(ch) >= len(b) {
		b = append(b, 0)
	}
	b[ch] += delta
	m.busy[id] = b
}

// busyEnd lowers the busy counters a transmission raised. It runs as an
// early event at t.end, before endTX and before any same-timestamp CCA. It
// walks the sensed set captured at transmission start, not the current sense
// links, so churn and mobility cannot unbalance the counters.
func (m *Medium) busyEnd(t *transmission) {
	for _, r := range t.sensed {
		m.busy[r][t.channel]--
		if m.invariantChecks && m.busy[r][t.channel] < 0 {
			panic(fmt.Sprintf("radio: busy counter of node %d channel %d went negative at %v",
				r, t.channel, m.k.Now()))
		}
	}
}

// SetInvariantChecks toggles the medium's opt-in runtime self-checks
// (currently: a channel-busy counter dropping below zero, which would mean
// a transmission was retired twice or never registered). Off by default.
func (m *Medium) SetInvariantChecks(on bool) { m.invariantChecks = on }

// getTransmission takes a transmission from the pool, retaining its slices'
// capacity, or allocates a fresh one.
func (m *Medium) getTransmission() *transmission {
	if n := len(m.txPool); n > 0 {
		t := m.txPool[n-1]
		m.txPool = m.txPool[:n-1]
		return t
	}
	return &transmission{}
}

// putTransmission resets t and returns it to the pool.
func (m *Medium) putTransmission(t *transmission) {
	t.f = nil
	t.powerDB = 0
	t.receivers = t.receivers[:0]
	t.corrupt = t.corrupt[:0]
	t.contested = t.contested[:0]
	t.sensed = t.sensed[:0]
	m.txPool = append(m.txPool, t)
}

// corruptAllAt marks every in-flight reception at node id as collided.
func (m *Medium) corruptAllAt(id frame.NodeID) {
	for _, t := range m.inflight[id] {
		for i, r := range t.receivers {
			if r == id {
				t.corrupt[i] = true
			}
		}
	}
}

// endTX finalizes a transmission: removes it from the air and delivers it to
// every receiver whose copy survived.
func (m *Medium) endTX(t *transmission) {
	now := m.k.Now()
	for i, r := range t.receivers {
		m.rxCount[r]--
		m.removeInflight(r, t)
		if t.corrupt[i] {
			m.stats[r].RxCollided++
			continue
		}
		if m.tuned[r] != t.channel {
			// The receiver retuned away mid-flight (e.g. its GTS ended).
			m.stats[r].RxCollided++
			continue
		}
		// A scheduled deep fade at either endpoint swallows the frame. The
		// check is deterministic (no rng draw), so enabling a fade leaves
		// every other link's loss sequence untouched.
		if m.fadeUntil != nil && (now < m.fadeUntil[r] || now < m.fadeUntil[t.src]) {
			m.stats[r].RxFaded++
			continue
		}
		// A receiver that is transmitting exactly as the frame ends cannot
		// have synchronized on it (covered by corrupt flag), but a receiver
		// may still lose the frame to fading.
		if p := m.topo.DeliveryProb(t.src, r); p < 1 && !m.rng.Bool(p) {
			m.stats[r].RxFaded++
			continue
		}
		// The Gilbert–Elliott burst-error process draws from per-link
		// streams, never from m.rng.
		if m.ge != nil && !m.ge.deliver(t.src, r, now) {
			m.stats[r].RxFaded++
			continue
		}
		m.stats[r].RxDelivered++
		if i < len(t.contested) && t.contested[i] {
			m.stats[r].RxCaptured++
		}
		if h := m.handlers[r]; h != nil {
			h.Deliver(t.f)
		}
	}
	m.putTransmission(t)
}

func (m *Medium) removeInflight(id frame.NodeID, t *transmission) {
	fl := m.inflight[id]
	for i, x := range fl {
		if x == t {
			fl[i] = fl[len(fl)-1]
			fl[len(fl)-1] = nil
			m.inflight[id] = fl[:len(fl)-1]
			return
		}
	}
}

// DecodeNeighbors returns the ids that can decode transmissions from src in
// ascending order (a view into the medium's link storage; callers must not
// mutate it, and it is only valid until the next churn or mobility event).
func (m *Medium) DecodeNeighbors(src frame.NodeID) []frame.NodeID { return m.decode[src] }

// SenseNeighbors returns the ids whose CCA detects transmissions from src,
// ascending (same ownership rules as DecodeNeighbors).
func (m *Medium) SenseNeighbors(src frame.NodeID) []frame.NodeID { return m.sense[src] }

// rowViews cuts arr into one full-capacity view per row, row i ending at
// ends[i], so appending to a row can never overwrite its successor.
func rowViews[ID GridID](arr []ID, ends []int32) [][]ID {
	rows := make([][]ID, len(ends))
	lo := int32(0)
	for i, hi := range ends {
		rows[i] = arr[lo:hi:hi]
		lo = hi
	}
	return rows
}

// armDynamics allocates the churn and fade state on first use; until then
// every node is present and no fade is scheduled.
func (m *Medium) armDynamics() {
	if m.present != nil {
		return
	}
	m.present = make([]bool, len(m.handlers))
	for i := range m.present {
		m.present[i] = true
	}
	m.fadeUntil = make([]sim.Time, len(m.handlers))
}

// SetGilbertElliott installs the burst-error process over every link. All of
// its randomness derives from seed and the link key, so it perturbs no other
// stream. A zero-valued (disabled) config removes the process.
func (m *Medium) SetGilbertElliott(cfg GilbertElliott, seed uint64) {
	if !cfg.Enabled() {
		m.ge = nil
		return
	}
	m.ge = newGEProcess(cfg, seed)
}

// SetFadeUntil opens (or extends) a deep-fade window at node id: until the
// given instant every frame to or from the node is lost at delivery time
// (transmissions still occupy the air and collide as usual, which is what
// makes a fade a learnable disturbance rather than a silent pause).
func (m *Medium) SetFadeUntil(id frame.NodeID, until sim.Time) {
	m.armDynamics()
	if until > m.fadeUntil[id] {
		m.fadeUntil[id] = until
	}
}

// SetPresent removes node id from the network (present == false) or rejoins
// it. Departure clears the node's link rows and removes it from every
// neighbour's rows; rejoining re-classifies the node's links against the
// current topology. Both directions cost O(degree · log degree). Ongoing
// transmissions are unaffected: their receiver and sensed sets were captured
// at transmission start, so a node that leaves mid-frame still completes
// those receptions and its raised busy counters still retire cleanly.
func (m *Medium) SetPresent(id frame.NodeID, present bool) {
	m.armDynamics()
	if m.present[id] == present {
		return
	}
	m.present[id] = present
	m.moveBufA = m.topo.AppendLinks(id, m.moveBufA[:0])
	if !present {
		for _, y := range m.moveBufA {
			m.decode[y] = sortedRemove(m.decode[y], id)
			m.sense[y] = sortedRemove(m.sense[y], id)
		}
		m.decode[id] = m.decode[id][:0]
		m.sense[id] = m.sense[id][:0]
		return
	}
	for _, y := range m.moveBufA {
		if y == id || !m.present[y] {
			continue
		}
		m.reclassifyPair(id, y)
	}
}

// MoveNode updates node id's position (the topology must be a
// *PathLossTopology) and incrementally re-classifies the affected links: the
// union of the node's link candidates before and after the move, O(degree)
// pairs, each updated in both directions — no full medium rebuild.
func (m *Medium) MoveNode(id frame.NodeID, p Position) {
	pt, ok := m.topo.(*PathLossTopology)
	if !ok {
		panic(fmt.Sprintf("radio: topology %T does not support MoveNode", m.topo))
	}
	m.armDynamics()
	m.moveBufA = pt.AppendLinks(id, m.moveBufA[:0])
	pt.MoveNode(id, p)
	m.moveBufB = pt.AppendLinks(id, m.moveBufB[:0])
	if !m.present[id] {
		return // rows rebuilt against the new position on rejoin
	}
	// Walk the merged (ascending) candidate sets, touching each pair once.
	a, b := m.moveBufA, m.moveBufB
	for len(a) > 0 || len(b) > 0 {
		var y frame.NodeID
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
			y, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			y, b = b[0], b[1:]
		default:
			y, a, b = a[0], a[1:], b[1:]
		}
		if y == id || !m.present[y] {
			continue
		}
		m.reclassifyPair(id, y)
	}
}

// reclassifyPair re-evaluates both directed links between x and y against
// the current topology and updates the link rows to match. Both nodes
// must be present.
func (m *Medium) reclassifyPair(x, y frame.NodeID) {
	decode, sense := classify(m.topo, x, y)
	m.decode[x] = sortedSet(m.decode[x], y, decode)
	m.sense[x] = sortedSet(m.sense[x], y, sense)
	decode, sense = classify(m.topo, y, x)
	m.decode[y] = sortedSet(m.decode[y], x, decode)
	m.sense[y] = sortedSet(m.sense[y], x, sense)
}

// sortedSet inserts or removes id so that row contains id iff member,
// keeping the row sorted.
func sortedSet(row []frame.NodeID, id frame.NodeID, member bool) []frame.NodeID {
	if member {
		return sortedInsert(row, id)
	}
	return sortedRemove(row, id)
}

func sortedInsert(row []frame.NodeID, id frame.NodeID) []frame.NodeID {
	i, found := slices.BinarySearch(row, id)
	if found {
		return row
	}
	return slices.Insert(row, i, id)
}

func sortedRemove(row []frame.NodeID, id frame.NodeID) []frame.NodeID {
	i, found := slices.BinarySearch(row, id)
	if !found {
		return row
	}
	return slices.Delete(row, i, i+1)
}
