package dsme

import (
	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
)

// Metrics aggregates the network-wide counters behind Fig. 21 (secondary
// PDR), Fig. 22 (successful GTS-requests), the "(de)allocations per second"
// claim and the primary-traffic PDR. One Metrics instance is shared by all
// nodes of a run; the simulation is single-threaded, so plain counters
// suffice. The measurement window opens at from: every frame counts by its
// creation instant, so an acknowledgement or reception inside the window of
// a frame sent before it counts neither as sent nor as delivered.
type Metrics struct {
	from sim.Time

	// RequestsSent / RequestsAcked count GTS-request unicasts (Fig. 22).
	RequestsSent, RequestsAcked uint64
	// BroadcastsSent counts response/notify/route broadcasts put on the air;
	// BroadcastsDelivered accumulates, for each broadcast, the fraction of
	// decode-neighbours that received it — together they yield the broadcast
	// part of the secondary PDR.
	BroadcastsSent      uint64
	BroadcastsDelivered float64
	// Duplicates counts duplicate-allocation detections.
	Duplicates uint64
	// PrimaryGenerated / PrimaryDelivered / PrimaryDelaySum account the GTS
	// data path end to end.
	PrimaryGenerated, PrimaryDelivered uint64
	PrimaryDelaySum                    sim.Time
}

// counts reports whether f was created inside the measurement window.
func (m *Metrics) counts(f *frame.Frame) bool { return f.CreatedAt >= m.from }

func (m *Metrics) noteRequestSent(f *frame.Frame) {
	if m.counts(f) {
		m.RequestsSent++
	}
}

func (m *Metrics) noteRequestAcked(f *frame.Frame) {
	if m.counts(f) {
		m.RequestsAcked++
	}
}

func (m *Metrics) noteBroadcastSent(f *frame.Frame) {
	if m.counts(f) {
		m.BroadcastsSent++
	}
}

func (m *Metrics) noteBroadcastReceived(f *frame.Frame, med *radio.Medium) {
	if !m.counts(f) {
		return
	}
	if n := len(med.DecodeNeighbors(f.Src)); n > 0 {
		m.BroadcastsDelivered += 1 / float64(n)
	}
}

func (m *Metrics) noteDuplicate(now sim.Time) {
	if now >= m.from {
		m.Duplicates++
	}
}

func (m *Metrics) notePrimaryGenerated(f *frame.Frame) {
	if m.counts(f) && f.Tag == frame.TagEval {
		m.PrimaryGenerated++
	}
}

func (m *Metrics) notePrimaryDelivered(f *frame.Frame, now sim.Time) {
	if m.counts(f) && f.Tag == frame.TagEval {
		m.PrimaryDelivered++
		m.PrimaryDelaySum += now - f.CreatedAt
	}
}

// SecondaryPDR reports the delivery ratio of the CAP traffic: acknowledged
// GTS-requests plus the per-neighbourhood delivery fractions of the
// broadcast messages (Fig. 21).
func (m *Metrics) SecondaryPDR() float64 {
	sent := float64(m.RequestsSent + m.BroadcastsSent)
	if sent == 0 {
		return 1
	}
	return (float64(m.RequestsAcked) + m.BroadcastsDelivered) / sent
}

// RequestSuccessRatio reports the fraction of GTS-requests that were
// acknowledged (Fig. 22).
func (m *Metrics) RequestSuccessRatio() float64 {
	if m.RequestsSent == 0 {
		return 1
	}
	return float64(m.RequestsAcked) / float64(m.RequestsSent)
}

// PrimaryPDR reports the end-to-end delivery ratio of the GTS data path.
func (m *Metrics) PrimaryPDR() float64 {
	if m.PrimaryGenerated == 0 {
		return 1
	}
	return float64(m.PrimaryDelivered) / float64(m.PrimaryGenerated)
}

// PrimaryMeanDelay reports the mean end-to-end delay of delivered primary
// packets in seconds.
func (m *Metrics) PrimaryMeanDelay() float64 {
	if m.PrimaryDelivered == 0 {
		return 0
	}
	return (sim.Time(float64(m.PrimaryDelaySum) / float64(m.PrimaryDelivered))).Seconds()
}
