package radio

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/sim"
)

// This file is the medium's shard-boundary surface for the multi-cell
// scale-out (internal/scenario's sharded runner): a transmission observer
// that lets a shard record its edge-node transmissions, and a foreign-busy
// injection that mirrors a remote shard's transmission into this medium's
// CCA accounting. Both are strictly additive — with no observer set and no
// injections scheduled, every hot path is byte-identical to the
// single-medium simulator.

// TxObserver observes every transmission start on the medium: the source,
// the channel and the on-air interval. It runs synchronously inside StartTX
// after the transmission's local effects are applied; it must not call back
// into the medium.
type TxObserver func(src frame.NodeID, channel uint8, start, end sim.Time)

// SetTxObserver registers the transmission observer (nil unregisters). The
// sharded runner uses it to record edge-node transmissions for the
// boundary-interference exchange; the observer itself changes no medium
// state, draws no randomness and schedules no events, so registering one
// keeps the run byte-identical.
func (m *Medium) SetTxObserver(fn TxObserver) { m.txObserver = fn }

// foreignTX mirrors one remote transmission into a single local node's busy
// accounting. Instances are pooled on their medium m.
type foreignTX struct {
	m       *Medium
	node    frame.NodeID
	channel uint8
	end     sim.Time
}

// foreignStart raises the node's busy counter and schedules foreignEnd.
func foreignStart(arg any) {
	ft := arg.(*foreignTX)
	ft.m.busyAdd(ft.node, ft.channel, 1)
	ft.m.k.AtCallEarly(ft.end, foreignEnd, ft)
}

// foreignEnd lowers the counter again and returns the record to the pool.
func foreignEnd(arg any) {
	ft := arg.(*foreignTX)
	m := ft.m
	m.busyAdd(ft.node, ft.channel, -1)
	if m.invariantChecks && m.busy[ft.node][ft.channel] < 0 {
		panic(fmt.Sprintf("radio: busy counter of node %d channel %d went negative at %v (foreign)",
			ft.node, ft.channel, m.k.Now()))
	}
	m.foreignPool = append(m.foreignPool, ft)
}

// ScheduleForeignBusy mirrors a remote shard's transmission into this
// medium: from start until just before end's normal events, node's busy
// counter on the given channel is raised, so CCAs at node see the foreign
// energy — the same half-open [start, end) semantics a local sense link
// gets from StartTX/busyEnd. Foreign energy is interference only: it
// synchronizes no receiver and corrupts no reception (cross-cell links are
// below the decode-synchronization threshold by the cell partitioner's
// construction), and it does not count into ChannelLoad, which stays the
// shard-local airtime picture. start must not precede the kernel's current
// time; an empty interval (end <= start) is ignored.
func (m *Medium) ScheduleForeignBusy(node frame.NodeID, channel uint8, start, end sim.Time) {
	if end <= start {
		return
	}
	if now := m.k.Now(); start < now {
		panic(fmt.Sprintf("radio: foreign busy for node %d scheduled in the past (start %v, now %v)", node, start, now))
	}
	var ft *foreignTX
	if n := len(m.foreignPool); n > 0 {
		ft = m.foreignPool[n-1]
		m.foreignPool = m.foreignPool[:n-1]
	} else {
		ft = &foreignTX{m: m}
	}
	ft.node, ft.channel, ft.end = node, channel, end
	m.k.AtCall(start, foreignStart, ft)
}
