package dsme

import (
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
)

// metricsMedium builds a 4-node star medium (0 hears 1,2,3) for the
// broadcast delivery-fraction accounting.
func metricsMedium(t *testing.T) *radio.Medium {
	t.Helper()
	g := radio.NewGraphTopology(4)
	g.AddLink(0, 1)
	g.AddLink(0, 2)
	g.AddLink(0, 3)
	return radio.NewMedium(sim.NewKernel(), g, sim.NewRand(1))
}

func TestMetricsMeasuringGate(t *testing.T) {
	med := metricsMedium(t)
	m := &Metrics{from: 10 * sim.Second}
	early := 9 * sim.Second
	req := &frame.Frame{Kind: frame.GTSRequest, Src: 1, Dst: 0, CreatedAt: early}
	bcast := &frame.Frame{Kind: frame.RouteDiscovery, Src: 0, Dst: frame.Broadcast, CreatedAt: early}
	data := &frame.Frame{Kind: frame.Data, Tag: frame.TagEval, CreatedAt: early}

	// Frames created before the window must be ignored, even when their
	// ACK or reception lands inside it: a request sent before the window
	// and acked inside it counts neither as sent nor as acked, so no ratio
	// can exceed 1.
	m.noteRequestSent(req)
	m.noteRequestAcked(req)
	m.noteBroadcastSent(bcast)
	m.noteBroadcastReceived(bcast, med)
	m.noteDuplicate(early)
	m.notePrimaryGenerated(data)
	m.notePrimaryDelivered(data, 11*sim.Second)
	if *m != (Metrics{from: m.from}) {
		t.Fatalf("counters moved for frames created before the window: %+v", *m)
	}

	req.CreatedAt, data.CreatedAt = m.from, 11*sim.Second
	m.noteRequestSent(req)
	m.noteRequestAcked(req)
	m.noteDuplicate(m.from)
	m.notePrimaryGenerated(data)
	m.notePrimaryDelivered(data, 13*sim.Second)
	if m.RequestsSent != 1 || m.RequestsAcked != 1 || m.Duplicates != 1 {
		t.Fatalf("handshake counters: %+v", *m)
	}
	if r := m.RequestSuccessRatio(); r != 1 {
		t.Fatalf("RequestSuccessRatio = %v, want 1", r)
	}
	if m.PrimaryGenerated != 1 || m.PrimaryDelivered != 1 {
		t.Fatalf("primary counters: %+v", *m)
	}
	if got := m.PrimaryMeanDelay(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("PrimaryMeanDelay = %v, want 2s", got)
	}
}

func TestMetricsPrimaryTagFilter(t *testing.T) {
	m := &Metrics{}
	mgmt := &frame.Frame{Kind: frame.Data, Tag: frame.TagManagement}
	m.notePrimaryGenerated(mgmt)
	m.notePrimaryDelivered(mgmt, sim.Second)
	if m.PrimaryGenerated != 0 || m.PrimaryDelivered != 0 {
		t.Fatalf("management traffic leaked into primary counters: %+v", *m)
	}
}

func TestMetricsBroadcastDeliveryFraction(t *testing.T) {
	med := metricsMedium(t)
	m := &Metrics{}
	// Node 0 has three decode-neighbours: each reception adds 1/3.
	bcast := &frame.Frame{Kind: frame.RouteDiscovery, Src: 0, Dst: frame.Broadcast}
	m.noteBroadcastSent(bcast)
	m.noteBroadcastReceived(bcast, med)
	m.noteBroadcastReceived(bcast, med)
	if math.Abs(m.BroadcastsDelivered-2.0/3) > 1e-9 {
		t.Fatalf("BroadcastsDelivered = %v, want 2/3", m.BroadcastsDelivered)
	}
	// A broadcast from an isolated node (no decode-neighbours) must not
	// divide by zero or move the accumulator.
	iso := &frame.Frame{Kind: frame.RouteDiscovery, Src: 1, Dst: frame.Broadcast}
	g := radio.NewGraphTopology(2)
	lonely := radio.NewMedium(sim.NewKernel(), g, sim.NewRand(1))
	m.noteBroadcastReceived(iso, lonely)
	if math.Abs(m.BroadcastsDelivered-2.0/3) > 1e-9 {
		t.Fatalf("isolated broadcast moved the accumulator: %v", m.BroadcastsDelivered)
	}
	if pdr := m.SecondaryPDR(); math.Abs(pdr-2.0/3) > 1e-9 {
		t.Fatalf("SecondaryPDR = %v, want 2/3 (one broadcast, 2/3 delivered)", pdr)
	}
}

func TestMetricsRatiosWithZeroDenominators(t *testing.T) {
	m := &Metrics{}
	if m.SecondaryPDR() != 1 {
		t.Fatalf("SecondaryPDR of an idle run = %v, want 1", m.SecondaryPDR())
	}
	if m.RequestSuccessRatio() != 1 {
		t.Fatalf("RequestSuccessRatio of an idle run = %v, want 1", m.RequestSuccessRatio())
	}
	if m.PrimaryPDR() != 1 {
		t.Fatalf("PrimaryPDR of an idle run = %v, want 1", m.PrimaryPDR())
	}
	if m.PrimaryMeanDelay() != 0 {
		t.Fatalf("PrimaryMeanDelay with no deliveries = %v, want 0", m.PrimaryMeanDelay())
	}
}

func TestMetricsSecondaryPDRMixesRequestsAndBroadcasts(t *testing.T) {
	m := &Metrics{}
	req, bcast := &frame.Frame{Kind: frame.GTSRequest}, &frame.Frame{Kind: frame.GTSNotify}
	m.noteRequestSent(req)
	m.noteRequestSent(req)
	m.noteRequestAcked(req)
	m.noteBroadcastSent(bcast)
	m.BroadcastsDelivered = 0.5
	// (1 acked + 0.5 delivered) / (2 requests + 1 broadcast)
	if got, want := m.SecondaryPDR(), 1.5/3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("SecondaryPDR = %v, want %v", got, want)
	}
	if got := m.RequestSuccessRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("RequestSuccessRatio = %v, want 0.5", got)
	}
}
