package faults

import (
	"strings"
	"testing"

	"qma/internal/sim"
)

func TestEnabled(t *testing.T) {
	var s Schedule
	if s.Enabled() {
		t.Error("zero schedule reports enabled")
	}
	cases := []Schedule{
		{Outages: []Outage{{Node: 0, At: 1, Duration: 1}}},
		{Reboots: []Reboot{{Node: 0, At: 1}}},
		{AckCorruption: []Window{{At: 1, Duration: 1}}},
		{BeaconLoss: []BeaconLoss{{Node: 0, At: 1, Duration: 1}}},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: schedule with one entry reports disabled", i)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Schedule{
		Outages:       []Outage{{Node: 2, At: 0, Duration: 1, StopBeacons: true}},
		Reboots:       []Reboot{{Node: 0, At: 0}},
		AckCorruption: []Window{{At: 5, Duration: 2}},
		BeaconLoss:    []BeaconLoss{{Node: 1, At: 3, Duration: 4}},
	}
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []struct {
		name string
		s    Schedule
		want string
	}{
		{"outage node high", Schedule{Outages: []Outage{{Node: 3, At: 1, Duration: 1}}}, "out of range"},
		{"outage node negative", Schedule{Outages: []Outage{{Node: -1, At: 1, Duration: 1}}}, "out of range"},
		{"outage negative start", Schedule{Outages: []Outage{{Node: 0, At: -1, Duration: 1}}}, "negative start"},
		{"outage zero duration", Schedule{Outages: []Outage{{Node: 0, At: 1}}}, "must be positive"},
		{"reboot node", Schedule{Reboots: []Reboot{{Node: 9, At: 1}}}, "out of range"},
		{"reboot negative", Schedule{Reboots: []Reboot{{Node: 0, At: -1}}}, "negative instant"},
		{"ack negative start", Schedule{AckCorruption: []Window{{At: -1, Duration: 1}}}, "negative start"},
		{"ack zero duration", Schedule{AckCorruption: []Window{{At: 1}}}, "must be positive"},
		{"beacon node", Schedule{BeaconLoss: []BeaconLoss{{Node: 5, At: 1, Duration: 1}}}, "out of range"},
		{"beacon negative start", Schedule{BeaconLoss: []BeaconLoss{{Node: 0, At: -1, Duration: 1}}}, "negative start"},
		{"beacon zero duration", Schedule{BeaconLoss: []BeaconLoss{{Node: 0, At: 1}}}, "must be positive"},
	}
	for _, tc := range bad {
		err := tc.s.Validate(3)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// checkWindowAgainstReference cross-checks SuspendWindow against the naive
// per-instant suspendedAt definition on every beacon-grid-aligned probe
// instant around the window.
func checkWindowAgainstReference(t *testing.T, sfd, at, dur sim.Time) {
	t.Helper()
	from, until, ok := SuspendWindow(sfd, at, dur)
	if ok && (from%sfd != 0 || until%sfd != 0) {
		t.Fatalf("sfd=%d at=%d dur=%d: window [%d,%d) not beacon-aligned", sfd, at, dur, from, until)
	}
	if ok && from >= until {
		t.Fatalf("sfd=%d at=%d dur=%d: empty window [%d,%d) reported ok", sfd, at, dur, from, until)
	}
	// Probe every superframe start from one before the window to one after,
	// plus mid-superframe instants: membership must match the reference.
	end := at + dur + 2*sfd
	step := sfd / 3
	if step == 0 {
		step = 1
	}
	for probe := sim.Time(0); probe <= end; probe += step {
		want := suspendedAt(sfd, at, dur, probe)
		got := ok && probe >= from && probe < until
		if want != got {
			t.Fatalf("sfd=%d at=%d dur=%d probe=%d: SuspendWindow says %v, reference says %v (window [%d,%d) ok=%v)",
				sfd, at, dur, probe, got, want, from, until, ok)
		}
	}
}

func TestSuspendWindowMatchesReference(t *testing.T) {
	const sfd = 120 // arbitrary beacon interval with a divisible third
	cases := []struct{ at, dur sim.Time }{
		{0, 1},        // window at origin
		{0, 120},      // exactly one superframe
		{1, 118},      // interior, no beacon inside
		{1, 119},      // ends exactly on a beacon (exclusive)
		{1, 120},      // one beacon inside
		{119, 2},      // straddles a beacon
		{120, 240},    // aligned multi-superframe
		{121, 360},    // unaligned multi-superframe
		{240, 1},      // starts on a beacon
		{359, 1},      // just before a beacon
		{100000, 777}, // far from origin
	}
	for _, c := range cases {
		checkWindowAgainstReference(t, sfd, c.at, c.dur)
	}
	// Degenerate inputs inject nothing.
	if _, _, ok := SuspendWindow(0, 5, 5); ok {
		t.Error("sfd=0 accepted")
	}
	if _, _, ok := SuspendWindow(sfd, 5, 0); ok {
		t.Error("dur=0 accepted")
	}
	if suspendedAt(0, 5, 5, 3) || suspendedAt(sfd, 5, 0, 3) {
		t.Error("degenerate suspendedAt reports suspension")
	}
}

// FuzzSuspendWindow drives the beacon-window arithmetic against the naive
// per-instant reference with arbitrary windows.
func FuzzSuspendWindow(f *testing.F) {
	f.Add(uint32(120), uint32(1), uint32(119))
	f.Add(uint32(7), uint32(0), uint32(21))
	f.Add(uint32(122880), uint32(100000), uint32(250000))
	f.Fuzz(func(t *testing.T, sfdRaw, atRaw, durRaw uint32) {
		sfd := sim.Time(sfdRaw%100000) + 1
		at := sim.Time(atRaw % 1000000)
		dur := sim.Time(durRaw%1000000) + 1
		checkWindowAgainstReference(t, sfd, at, dur)
	})
}

// suspendedAt is the naive reference for SuspendWindow: it decides whether a
// node that lost every beacon in [at, at+dur) is desynchronized at instant t
// by walking the beacon grid directly. A node is desynchronized at t when
// the most recent beacon at or before t was lost. The fuzz harness checks
// SuspendWindow against this definition point by point.
func suspendedAt(sfd, at, dur, t sim.Time) bool {
	if sfd <= 0 || dur <= 0 {
		return false
	}
	lastBeacon := t - t%sfd
	return lastBeacon >= at && lastBeacon < at+dur
}
