package radio

import (
	"fmt"
	"testing"

	"qma/internal/frame"
	"qma/internal/sim"
)

// Capture-model tests: per-transmission power levels, SINR capture at the
// receiver, and the byte-identical guarantee for single-power runs. The rig
// of medium_test.go (hidden-node chains over GraphTopology) is reused where
// the graph's unity link gains make power arithmetic exact; PathLoss cases
// use hand-placed positions.

// captureRig is a hidden-node pair: 0 and 2 both reach 1, not each other.
func captureRig(t *testing.T, thresholdDB float64) *rig {
	t.Helper()
	r := newRig(t, 3, [][2]int{{0, 1}, {1, 2}})
	r.m.SetCaptureThreshold(thresholdDB)
	return r
}

// TestCaptureEqualPowersNeverCapture pins the tie rule: two overlapping
// reference-power frames on a graph topology arrive with identical power, so
// neither clears any positive threshold and both are lost — exactly the
// pre-capture collision outcome.
func TestCaptureEqualPowersNeverCapture(t *testing.T) {
	for _, threshold := range []float64{0.1, 6, 20} {
		r := captureRig(t, threshold)
		r.m.StartTX(0, dataFrame(0, 0), 0)
		r.k.Schedule(frame.AirTime(20)/2, func() { r.m.StartTX(2, dataFrame(2, 0), 0) })
		r.k.RunAll()
		if len(r.recvd[1]) != 0 {
			t.Errorf("threshold %v: equal-power overlap delivered %d frames, want 0", threshold, len(r.recvd[1]))
		}
		st := r.m.Stats(1)
		if st.RxCollided != 2 || st.RxCaptured != 0 {
			t.Errorf("threshold %v: stats at 1: %+v", threshold, st)
		}
	}
}

// TestCaptureStrongerFrameSurvives pins the headline capture behaviour: with
// a power gap at or above the threshold, the strong frame decodes and the
// weak one collides; below the threshold both are lost.
func TestCaptureStrongerFrameSurvives(t *testing.T) {
	cases := []struct {
		gapDB     float64
		threshold float64
		captured  bool
	}{
		{gapDB: 8, threshold: 6, captured: true},
		{gapDB: 6, threshold: 6, captured: true}, // exact-threshold boundary: >= captures
		{gapDB: 5.9, threshold: 6, captured: false},
		{gapDB: 12, threshold: 20, captured: false},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("gap=%v threshold=%v", tc.gapDB, tc.threshold)
		r := captureRig(t, tc.threshold)
		r.m.StartTX(2, dataFrame(2, 0), tc.gapDB) // weak frame first
		r.k.Schedule(frame.AirTime(20)/4, func() { r.m.StartTX(0, dataFrame(0, 0), 0) })
		r.k.RunAll()
		st := r.m.Stats(1)
		if tc.captured {
			if len(r.recvd[1]) != 1 || r.recvd[1][0].Src != 0 {
				t.Errorf("%s: delivered %v, want the strong frame from 0", label, r.recvd[1])
			}
			if st.RxCaptured != 1 || st.RxCollided != 1 {
				t.Errorf("%s: stats at 1: %+v", label, st)
			}
		} else {
			if len(r.recvd[1]) != 0 {
				t.Errorf("%s: delivered %d frames, want 0", label, len(r.recvd[1]))
			}
			if st.RxCaptured != 0 || st.RxCollided != 2 {
				t.Errorf("%s: stats at 1: %+v", label, st)
			}
		}
	}
}

// TestCaptureLateStrongFrameWins pins that capture is re-evaluated at every
// arrival: a strong frame starting during a weak frame's airtime takes the
// receiver even though the weak frame synchronized first.
func TestCaptureLateStrongFrameWins(t *testing.T) {
	r := captureRig(t, 6)
	r.m.StartTX(2, dataFrame(2, 0), 10) // weak, starts first
	r.k.Schedule(frame.AirTime(20)/2, func() { r.m.StartTX(0, dataFrame(0, 0), 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 1 || r.recvd[1][0].Src != 0 {
		t.Fatalf("delivered %v, want only the late strong frame", r.recvd[1])
	}
}

// TestCaptureWinnerBeatenInItsTail pins the other direction: a frame that
// captured an early overlap can still lose to an even stronger frame
// arriving before it ends — corruption is one-way, capture never rescues.
func TestCaptureWinnerBeatenInItsTail(t *testing.T) {
	r := newRig(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	r.m.SetCaptureThreshold(6)
	quarter := frame.AirTime(20) / 4
	r.m.StartTX(2, dataFrame(2, 0), 14)                                    // weakest
	r.k.Schedule(quarter, func() { r.m.StartTX(3, dataFrame(3, 0), 7) })   // captures over 2
	r.k.Schedule(2*quarter, func() { r.m.StartTX(0, dataFrame(0, 0), 0) }) // beats 3's tail
	r.k.RunAll()
	if len(r.recvd[1]) != 1 || r.recvd[1][0].Src != 0 {
		t.Fatalf("delivered %v, want only the final strongest frame", r.recvd[1])
	}
	st := r.m.Stats(1)
	if st.RxCollided != 2 || st.RxCaptured != 1 {
		t.Errorf("stats at 1: %+v", st)
	}
}

// TestCaptureAggregateInterference pins the SINR denominator: two weak
// interferers sum, so a frame whose gap to each individual interferer clears
// the threshold can still fall below it against their combined power.
func TestCaptureAggregateInterference(t *testing.T) {
	// Gap 6 dB to each of two equal interferers: SINR = 6 − 10·log10(2)
	// ≈ 2.99 dB < 6 dB ⇒ no capture, even though pairwise it would capture.
	r := newRig(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	r.m.SetCaptureThreshold(6)
	r.m.StartTX(2, dataFrame(2, 0), 6)
	r.m.StartTX(3, dataFrame(3, 0), 6)
	r.k.Schedule(frame.AirTime(20)/4, func() { r.m.StartTX(0, dataFrame(0, 0), 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 0 {
		t.Fatalf("delivered %v, want none (aggregate interference)", r.recvd[1])
	}
}

// TestCaptureAckOverData pins that capture applies uniformly to every frame
// kind: an immediate ACK transmitted at reference power captures over a weak
// DATA frame overlapping it at a common neighbour (the asymmetry a NOMA MAC
// exploits — the short strong ACK punches through).
func TestCaptureAckOverData(t *testing.T) {
	r := captureRig(t, 6)
	ack := &frame.Frame{Kind: frame.Ack, Src: 0, Dst: frame.Broadcast, MPDUBytes: frame.AckMPDUBytes, Channel: 0}
	r.m.StartTX(2, dataFrame(2, 0), 10) // weak DATA, long
	r.k.Schedule(frame.AirTime(20)/8, func() { r.m.StartTX(0, ack, 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 1 || r.recvd[1][0].Kind != frame.Ack {
		t.Fatalf("delivered %v, want only the strong ACK", r.recvd[1])
	}
	if st := r.m.Stats(1); st.RxCaptured != 1 {
		t.Errorf("stats at 1: %+v", st)
	}
}

// TestCaptureHalfDuplexNotRescued pins that capture never overrides the
// half-duplex rule: the strongest frame still fails at a receiver that is
// itself transmitting.
func TestCaptureHalfDuplexNotRescued(t *testing.T) {
	r := captureRig(t, 6)
	r.m.StartTX(1, dataFrame(1, 0), 0) // receiver busy transmitting
	r.m.StartTX(2, dataFrame(2, 0), 20)
	r.k.Schedule(frame.AirTime(20)/4, func() { r.m.StartTX(0, dataFrame(0, 0), 0) })
	r.k.RunAll()
	if len(r.recvd[1]) != 0 {
		t.Fatalf("delivered %v at a half-duplex receiver, want none", r.recvd[1])
	}
}

// TestReducedPowerShrinksReach pins the per-transmission link filtering on a
// path-loss topology: a power reduction larger than a link's decode margin
// drops the receiver, one larger than the sense margin frees the neighbour's
// CCA, while reference-power behaviour is untouched.
func TestReducedPowerShrinksReach(t *testing.T) {
	cfg := DefaultPathLossConfig() // −9 dBm TX, −72 dBm sensitivity, 10 dB CCA margin
	// The default decode range is ≈5.85 m: node 1 sits close to 0 (large
	// margin), node 2 near the decode edge.
	pos := []Position{{X: 0}, {X: 0.3}, {X: 5.5}}
	pt := NewPathLossTopology(cfg, pos)
	// Sanity: the 0→2 decode margin is small and positive.
	_, farDecode, farSense := pt.LinkSignal(0, 2)
	if farDecode <= 0 || farDecode >= 3 {
		t.Fatalf("test geometry drifted: 0→2 decode margin %.2f dB, want (0, 3)", farDecode)
	}
	if farSense >= 0 {
		t.Fatalf("test geometry drifted: 0→2 sense margin %.2f dB, want < 0", farSense)
	}
	_, nearDecode, nearSense := pt.LinkSignal(0, 1)
	if nearDecode < 20 || nearSense < 20 {
		t.Fatalf("test geometry drifted: 0→1 margins %.2f/%.2f dB, want both > 20", nearDecode, nearSense)
	}

	run := func(reduceDB float64) (delivered0to1, delivered0to2 uint64, busyAt1 bool) {
		k := sim.NewKernel()
		m := NewMedium(k, pt, sim.NewRand(1))
		for i := 0; i < 3; i++ {
			m.Attach(frame.NodeID(i), HandlerFunc(func(*frame.Frame) {}))
		}
		m.StartTX(0, dataFrame(0, 0), reduceDB)
		busyAt1 = !m.CCA(1)
		k.RunAll()
		return m.Stats(1).RxDelivered, m.Stats(2).RxDelivered, busyAt1
	}

	if d1, d2, busy := run(0); d1 != 1 || d2 != 1 || !busy {
		t.Errorf("reference power: delivered (%d,%d) busy=%v, want (1,1) true", d1, d2, busy)
	}
	// Reduce past 2's decode margin but below 1's: only 1 still decodes.
	if d1, d2, busy := run(farDecode + 1); d1 != 1 || d2 != 0 || !busy {
		t.Errorf("reduced power: delivered (%d,%d) busy=%v, want (1,0) true", d1, d2, busy)
	}
	// Reduce past 1's sense margin too: 1 still decodes but its CCA is clear.
	if d1, _, busy := run(nearSense + 1); busy || (nearDecode > nearSense+1 && d1 != 1) {
		t.Errorf("deep reduction: delivered %d busy=%v, want decode without carrier sense", d1, busy)
	}
}

// TestCaptureOnPathLossRSSIGap pins capture driven purely by geometry: same
// TX power, but the closer transmitter's RSSI advantage clears the
// threshold.
func TestCaptureOnPathLossRSSIGap(t *testing.T) {
	cfg := DefaultPathLossConfig()
	// 1 is the receiver; 0 is close, 2 far but still decodable: RSSI gap =
	// 10·n·log10(d2/d0) = 30·log10(4/1) ≈ 18 dB.
	pos := []Position{{X: 1}, {X: 0}, {X: -4}}
	pt := NewPathLossTopology(cfg, pos)
	k := sim.NewKernel()
	m := NewMedium(k, pt, sim.NewRand(1))
	var got []frame.NodeID
	for i := 0; i < 3; i++ {
		m.Attach(frame.NodeID(i), HandlerFunc(func(f *frame.Frame) { got = append(got, f.Src) }))
	}
	m.SetCaptureThreshold(10)
	m.StartTX(2, dataFrame(2, 0), 0)
	k.Schedule(frame.AirTime(20)/2, func() { m.StartTX(0, dataFrame(0, 0), 0) })
	k.RunAll()
	if m.Stats(1).RxCaptured != 1 {
		t.Errorf("receiver stats: %+v, want one captured reception", m.Stats(1))
	}
	for _, src := range got {
		if src == 2 {
			t.Errorf("far frame delivered despite the 18 dB gap")
		}
	}
}

// TestCaptureDisabledMatchesDense pins the byte-identical guarantee from the
// other side: with capture enabled on a graph topology but every
// transmission at the reference power, the randomized differential scripts
// of dense_test.go must still match the dense pre-capture reference exactly
// (equal powers never capture, so the capture code must not perturb a single
// delivery, CCA answer or counter).
func TestCaptureDisabledMatchesDense(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := sim.NewRand(uint64(7000 + trial))
		n := 3 + rng.Intn(20)
		g := randomGraph(rng, n, 0.1+rng.Float64()*0.6)
		script := randomScript(rng, n, 400)
		trace1, cca1, stats1 := runScriptDense(g, uint64(trial), script)
		trace2, cca2, stats2 := runScript(g, uint64(trial), script, func(k *sim.Kernel, rng *sim.Rand) (
			func(frame.NodeID) bool, func(frame.NodeID, *frame.Frame) sim.Time,
			func(frame.NodeID, uint8), func(frame.NodeID) bool,
			func(frame.NodeID, Handler), func(frame.NodeID) NodeStats,
		) {
			m := NewMedium(k, g, rng)
			m.SetCaptureThreshold(6)
			startTX := func(id frame.NodeID, f *frame.Frame) sim.Time { return m.StartTX(id, f, 0) }
			return m.CCA, startTX, m.SetTuned, m.Transmitting, m.Attach, m.Stats
		})
		if len(trace1) != len(trace2) || len(cca1) != len(cca2) {
			t.Fatalf("trial %d: trace %d vs %d, cca %d vs %d", trial, len(trace1), len(trace2), len(cca1), len(cca2))
		}
		for i := range trace1 {
			if trace1[i] != trace2[i] {
				t.Fatalf("trial %d: delivery %d: dense %+v, capture-enabled %+v", trial, i, trace1[i], trace2[i])
			}
		}
		for i := range cca1 {
			if cca1[i] != cca2[i] {
				t.Fatalf("trial %d: CCA %d: dense %v, capture-enabled %v", trial, i, cca1[i], cca2[i])
			}
		}
		for i := range stats1 {
			if stats1[i] != stats2[i] {
				t.Fatalf("trial %d: node %d stats: dense %+v, capture-enabled %+v", trial, i, stats1[i], stats2[i])
			}
		}
	}
}

// TestTxAirtimeByPower pins the per-level airtime breakdown behind the
// power-aware energy model.
func TestTxAirtimeByPower(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	if got := r.m.TxAirtimeByPower(0); got != nil {
		t.Fatalf("single-power medium reports a breakdown: %v", got)
	}
	air := frame.AirTime(20)
	r.m.StartTX(0, dataFrame(0, 0), 0)
	r.k.RunAll()
	r.m.StartTX(0, dataFrame(0, 0), 8)
	r.k.RunAll()
	r.m.StartTX(0, dataFrame(0, 0), 8)
	r.k.RunAll()
	r.m.StartTX(0, dataFrame(0, 0), 16)
	r.k.RunAll()
	got := r.m.TxAirtimeByPower(0)
	want := []PowerAirtime{{0, air}, {8, 2 * air}, {16, air}}
	if len(got) != len(want) {
		t.Fatalf("breakdown %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("breakdown %v, want %v", got, want)
		}
	}
	if got := r.m.TxAirtimeByPower(1); len(got) != 1 || got[0] != (PowerAirtime{0, 0}) {
		t.Fatalf("idle node breakdown %v, want a zero reference row", got)
	}
}

// TestStartTXPowerValidation pins the API contract: a negative reduction
// (transmitting above the reference power) panics loudly.
func TestStartTXPowerValidation(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	mustPanic(t, "negative reduction", func() { r.m.StartTX(0, dataFrame(0, 0), -1) })
}

// TestCaptureThresholdAccessors pins enable/disable round trips: <= 0
// disables capture again.
func TestCaptureThresholdAccessors(t *testing.T) {
	r := newRig(t, 2, [][2]int{{0, 1}})
	if got := r.m.CaptureThreshold(); got != 0 {
		t.Fatalf("default threshold %v, want 0 (disabled)", got)
	}
	r.m.SetCaptureThreshold(6)
	if got := r.m.CaptureThreshold(); got != 6 {
		t.Fatalf("threshold %v, want 6", got)
	}
	r.m.SetCaptureThreshold(0)
	if got := r.m.CaptureThreshold(); got != 0 {
		t.Fatalf("threshold %v after disable, want 0", got)
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", label)
		}
	}()
	fn()
}
