// Package frame models IEEE 802.15.4 MAC frames at the granularity the
// paper's evaluation needs: frame kinds, addressing, byte lengths (which
// determine on-air durations), sequence numbers and the queue-level
// piggyback field QMA uses for parameter-based exploration.
package frame

import (
	"fmt"

	"qma/internal/sim"
	"qma/internal/superframe"
)

// NodeID identifies a network node. IDs are dense small integers assigned by
// the scenario builder; the value Broadcast addresses every neighbour.
type NodeID int16

// Broadcast is the destination address for broadcast frames (0xffff in the
// standard).
const Broadcast NodeID = -1

// Kind enumerates the frame types exercised by the paper's scenarios.
type Kind uint8

const (
	// Data is a primary-traffic data frame (unicast, acknowledged).
	Data Kind = iota + 1
	// Ack is an immediate acknowledgement.
	Ack
	// Beacon is the superframe beacon (slot 0, broadcast).
	Beacon
	// GTSRequest initiates the DSME 3-way GTS handshake (unicast, acked).
	GTSRequest
	// GTSResponse is the second handshake step (broadcast).
	GTSResponse
	// GTSNotify completes the handshake (broadcast).
	GTSNotify
	// RouteDiscovery is a periodic routing broadcast (GPSR substitute).
	RouteDiscovery
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Beacon:
		return "BEACON"
	case GTSRequest:
		return "GTS-REQ"
	case GTSResponse:
		return "GTS-RESP"
	case GTSNotify:
		return "GTS-NOTIFY"
	case RouteDiscovery:
		return "ROUTE-DISC"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PHY timing constants for the 2.4 GHz O-QPSK PHY used by the paper's
// hardware (AT86RF231) and simulations.
const (
	// SymbolDuration is one PHY symbol: 16 µs.
	SymbolDuration sim.Time = 16
	// SymbolsPerByte: 2 symbols encode one byte (4-bit symbols).
	SymbolsPerByte = 2
	// PHYOverheadBytes: 4 preamble + 1 SFD + 1 PHR.
	PHYOverheadBytes = 6
	// AckMPDUBytes is the MPDU length of an immediate ACK.
	AckMPDUBytes = 5
	// TurnaroundTime is aTurnaroundTime (12 symbols): RX/TX switch before an
	// ACK is sent.
	TurnaroundTime = 12 * SymbolDuration
	// CCADuration is the 8-symbol clear channel assessment.
	CCADuration = 8 * SymbolDuration
	// MaxMPDUBytes is aMaxPHYPacketSize.
	MaxMPDUBytes = 127
)

// AckDuration is the on-air time of an immediate ACK frame.
var AckDuration = AirTime(AckMPDUBytes)

// AckWait is the time a transmitter waits for an ACK after its data frame
// ends before declaring the transmission failed (turnaround + ACK + margin).
var AckWait = TurnaroundTime + AckDuration + 8*SymbolDuration

// AirTime converts an MPDU byte length into an on-air duration, including
// PHY preamble/SFD/PHR overhead.
func AirTime(mpduBytes int) sim.Time {
	return sim.Time(mpduBytes+PHYOverheadBytes) * SymbolsPerByte * SymbolDuration
}

// Frame is one MAC frame in flight or in a queue. Frames are created once by
// the origin and passed by pointer; retransmissions reuse the same Frame.
// The one-byte fields sit together so that a frame, command included, fits
// an 80-byte allocation.
type Frame struct {
	Kind Kind
	// Src and Dst are the hop source and destination (Dst == Broadcast for
	// broadcast frames).
	Src, Dst NodeID
	// Origin and Sink are the end-to-end endpoints for multi-hop data.
	Origin, Sink NodeID
	// Seq is the origin-scoped sequence number (for duplicate detection and
	// PDR accounting).
	Seq uint32
	// QueueLevel piggybacks the sender's queue occupancy (§4.2).
	QueueLevel uint8
	// Channel is the radio channel the frame is transmitted on (0 is the
	// common CAP channel; GTS traffic uses the slot's channel offset).
	Channel uint8
	// Retries is MAC scratch state: how many retransmissions this frame has
	// already used on the current hop.
	Retries uint8
	// Tag classifies the frame for accounting (evaluation traffic vs
	// management traffic); it does not affect MAC behaviour.
	Tag Tag
	// MPDUBytes is the MAC frame length; determines air time.
	MPDUBytes int
	// CreatedAt is the generation instant of the payload (for end-to-end
	// delay measurement); preserved across hops.
	CreatedAt sim.Time
	// Cmd is the content of a GTS command frame (GTSRequest, GTSResponse,
	// GTSNotify); zero for every other kind.
	Cmd Command
}

// Command is the DSME-GTS management content of a GTS command frame, at the
// granularity the evaluation needs. The frame holds it by value, so a
// command frame carries its content without an allocation of its own.
type Command struct {
	// ID pairs the handshake's three messages.
	ID uint32
	// GTS is the coordinate under negotiation.
	GTS superframe.GTS
	// Requester and Responder identify the pair (responses and notifies).
	Requester, Responder NodeID
	// Approved is false when the responder's map already shows the slot as
	// taken (responses only).
	Approved bool
	// Deallocate inverts the handshake's meaning.
	Deallocate bool
}

// Tag classifies traffic for statistics purposes.
type Tag uint8

const (
	// TagEval marks the evaluation packets every PDR figure counts.
	TagEval Tag = iota
	// TagManagement marks background management traffic (present so the MAC
	// has something to learn from before the measured traffic starts, like
	// the association-phase traffic of §6.1).
	TagManagement
)

// IsBroadcast reports whether the frame has no individual destination and is
// therefore unacknowledged.
func (f *Frame) IsBroadcast() bool { return f.Dst == Broadcast }

// Duration is the frame's on-air time.
func (f *Frame) Duration() sim.Time { return AirTime(f.MPDUBytes) }

// ExchangeDuration is the channel time one transmission of the frame
// occupies: its air time plus, for a unicast, the ACK wait.
func (f *Frame) ExchangeDuration() sim.Time {
	if f.IsBroadcast() {
		return f.Duration()
	}
	return f.Duration() + AckWait
}

// String summarizes the frame for logs and test failures.
func (f *Frame) String() string {
	return fmt.Sprintf("%s src=%d dst=%d seq=%d len=%dB", f.Kind, f.Src, f.Dst, f.Seq, f.MPDUBytes)
}
