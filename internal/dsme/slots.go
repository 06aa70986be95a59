// Package dsme implements the Deterministic and Synchronous Multi-channel
// Extension mechanics the paper evaluates QMA inside (§6.3, Appendix A):
// guaranteed time slots (GTS) spread over time and frequency, the 3-way
// allocation/deallocation handshake (request → response → notify) carried as
// secondary traffic over the contention access period, duplicate-allocation
// detection through overheard broadcasts, and a traffic-adaptive slot
// controller that converts fluctuating primary traffic into the
// (de)allocation churn the paper's scenario is about.
package dsme

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// SlotState classifies one GTS coordinate in a node's local map.
type SlotState uint8

const (
	// SlotFree means the node knows of no allocation.
	SlotFree SlotState = iota
	// SlotNeighbor means an overheard handshake claimed the slot somewhere
	// in the neighbourhood.
	SlotNeighbor
	// SlotPending means a handshake for the slot is in flight at this node.
	SlotPending
	// SlotTX means this node owns the slot for transmitting.
	SlotTX
	// SlotRX means this node owns the slot for receiving.
	SlotRX
)

// String implements fmt.Stringer.
func (s SlotState) String() string {
	switch s {
	case SlotFree:
		return "free"
	case SlotNeighbor:
		return "neighbor"
	case SlotPending:
		return "pending"
	case SlotTX:
		return "tx"
	case SlotRX:
		return "rx"
	default:
		return fmt.Sprintf("SlotState(%d)", uint8(s))
	}
}

// SlotMap is one node's view of the GTS grid. Entries decay to SlotFree only
// through explicit deallocation; the paper's handshakes are the sole
// mutation source.
type SlotMap struct {
	cfg    superframe.Config
	states []SlotState
	// peer[i] is the counterpart node for owned/pending slots.
	peer []frame.NodeID
	// heardAt[i] is when a SlotNeighbor entry was last refreshed; stale
	// hearsay expires so that failed handshakes cannot pollute the map
	// forever (real DSME expires unused GTS similarly).
	heardAt []sim.Time
}

// NewSlotMap returns an all-free map over cfg's GTS grid.
func NewSlotMap(cfg superframe.Config) *SlotMap {
	n := cfg.GTSPerMultiframe()
	m := &SlotMap{
		cfg:     cfg,
		states:  make([]SlotState, n),
		peer:    make([]frame.NodeID, n),
		heardAt: make([]sim.Time, n),
	}
	for i := range m.peer {
		m.peer[i] = -1
	}
	return m
}

// State reports the map entry for g.
func (m *SlotMap) State(g superframe.GTS) SlotState { return m.states[g.Index(m.cfg)] }

// Peer reports the counterpart node recorded for g (-1 when none).
func (m *SlotMap) Peer(g superframe.GTS) frame.NodeID { return m.peer[g.Index(m.cfg)] }

// Set records state and counterpart for g.
func (m *SlotMap) Set(g superframe.GTS, s SlotState, peer frame.NodeID) {
	i := g.Index(m.cfg)
	m.states[i] = s
	m.peer[i] = peer
}

// Clear returns g to SlotFree.
func (m *SlotMap) Clear(g superframe.GTS) { m.Set(g, SlotFree, -1) }

// MarkNeighbor records an overheard allocation at time now unless the node
// itself holds the slot (owned/pending states outrank hearsay; the duplicate
// check handles the conflict). Re-hearing a known allocation refreshes its
// expiry.
func (m *SlotMap) MarkNeighbor(g superframe.GTS, now sim.Time) {
	st := m.State(g)
	if st == SlotFree {
		m.Set(g, SlotNeighbor, -1)
	}
	if st == SlotFree || st == SlotNeighbor {
		m.heardAt[g.Index(m.cfg)] = now
	}
}

// ExpireNeighbors clears every SlotNeighbor entry last refreshed before the
// given instant and reports how many were cleared.
func (m *SlotMap) ExpireNeighbors(before sim.Time) int {
	n := 0
	for i, st := range m.states {
		if st == SlotNeighbor && m.heardAt[i] < before {
			m.states[i] = SlotFree
			m.peer[i] = -1
			n++
		}
	}
	return n
}

// Count reports how many slots are in state s.
func (m *SlotMap) Count(s SlotState) int {
	n := 0
	for _, st := range m.states {
		if st == s {
			n++
		}
	}
	return n
}

// Nth returns the k-th slot (counting from 0, in grid order) in state s,
// and false when fewer than k+1 slots are in that state.
func (m *SlotMap) Nth(s SlotState, k int) (superframe.GTS, bool) {
	for i, st := range m.states {
		if st != s {
			continue
		}
		if k == 0 {
			return superframe.GTSFromIndex(m.cfg, i), true
		}
		k--
	}
	return superframe.GTS{}, false
}

// TimeTaken reports whether any channel at g's time coordinate (superframe
// and slot) is owned (SlotTX, SlotRX) or under negotiation (SlotPending):
// one radio cannot serve two channels at once.
func (m *SlotMap) TimeTaken(g superframe.GTS) bool {
	for ch := 0; ch < superframe.NumChannels; ch++ {
		switch m.State(superframe.GTS{Superframe: g.Superframe, Slot: g.Slot, Channel: ch}) {
		case SlotTX, SlotRX, SlotPending:
			return true
		}
	}
	return false
}

// PickFree returns the n-th free slot in grid order (n wraps around the free
// count) and whether any free slot exists. Callers randomize n so concurrent
// allocations in one neighbourhood rarely pick the same slot.
func (m *SlotMap) PickFree(n int) (superframe.GTS, bool) {
	free := 0
	for _, st := range m.states {
		if st == SlotFree {
			free++
		}
	}
	if free == 0 {
		return superframe.GTS{}, false
	}
	n %= free
	if n < 0 {
		n += free
	}
	for i, st := range m.states {
		if st != SlotFree {
			continue
		}
		if n == 0 {
			return superframe.GTSFromIndex(m.cfg, i), true
		}
		n--
	}
	return superframe.GTS{}, false
}

// Command frame MPDU lengths (header + DSME-GTS management content).
const (
	// RequestMPDU is the GTS-request length in bytes.
	RequestMPDU = 27
	// ResponseMPDU is the GTS-response length in bytes.
	ResponseMPDU = 29
	// NotifyMPDU is the GTS-notify length in bytes.
	NotifyMPDU = 27
)
