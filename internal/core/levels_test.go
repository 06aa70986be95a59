package core

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// newLevelsRig wires n engines with K power levels 6 dB apart and
// captured-over shaping, the NOMA configuration, over an explicit graph. A
// large startupSubslots keeps the engines in cautious startup (observation
// only), which the forced-action tests use to stage deterministic
// transmissions.
func newLevelsRig(t *testing.T, links [][2]int, n, levels, startupSubslots int) *rig {
	t.Helper()
	return newRig(t, links, n, func(_ int, c *Config) {
		c.MAC.MaxRetries = -1
		c.Levels = levels
		c.LevelStepDB = 6
		c.CapturedOver = true
		c.StartupSubslots = startupSubslots
		c.StartupPunish = true
	})
}

// qTarget is the Q-value one update with reward r moves a fresh entry to.
func qTarget(r float64) float64 {
	p := qlearn.DefaultParams()
	return (1-p.Alpha)*p.InitQ + p.Alpha*(r+p.Gamma*p.InitQ)
}

// TestCaptureSharingDeterministic stages the headline NOMA behaviour with no
// randomness: hidden-node pair 0 and 2 transmit simultaneously in the same
// subslot at different power levels towards 1. With capture enabled the
// level-0 frame decodes (delivered despite the overlap), 0 is ACKed, and 2's
// failure is softened to RewardCapturedOver by the overheard foreign ACK.
func TestCaptureSharingDeterministic(t *testing.T) {
	r := newLevelsRig(t, [][2]int{{0, 1}, {1, 2}}, 3, 2, 1<<20)
	r.m.SetCaptureThreshold(6)

	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.engines[2].Enqueue(dataTo(1, 2, 1))

	at := r.clock.SubslotStart(0, 5)
	sendAt := func(e *Engine, level int) {
		r.k.At(at, func() { e.execute(5, 2*2+level) })
	}
	sendAt(r.engines[0], 0)
	sendAt(r.engines[2], 1)
	r.k.Run(at + 10*sim.Millisecond)

	if got := r.engines[1].Base().Stats().Delivered; got != 1 {
		t.Fatalf("sink delivered %d frames, want 1 (the captured level-0 frame)", got)
	}
	if got := r.m.Stats(1).RxCaptured; got != 1 {
		t.Fatalf("RxCaptured = %d, want 1: the delivery must have happened under overlap", got)
	}
	if s := r.engines[0].Base().Stats(); s.TxSuccess != 1 || s.TxFail != 0 {
		t.Errorf("strong sender stats: %+v", s)
	}
	weak := r.engines[2]
	if s := weak.Base().Stats(); s.TxFail != 1 {
		t.Errorf("weak sender stats: %+v", s)
	}
	if es := weak.EngineStats(); es.CapturedOver != 1 {
		t.Errorf("weak sender engine stats: %+v, want CapturedOver=1", es)
	}
	// The softened reward must actually have reached the Q-table: the
	// (subslot 5, QSend level 1) entry moved to the captured-over target,
	// not the full send-failure target.
	q := weak.Learner().Table().Q(5, 2*2+1)
	if want := qTarget(RewardCapturedOver); q != want {
		t.Errorf("Q(5, QSend@1) = %v, want the captured-over target %v (full-failure target would be %v)",
			q, want, qTarget(RewardSendFail))
	}
}

// TestCaptureOffBothFail is the control: same staging without capture — the
// overlap kills both frames and no captured-over relief applies (no ACK
// exists to overhear).
func TestCaptureOffBothFail(t *testing.T) {
	r := newLevelsRig(t, [][2]int{{0, 1}, {1, 2}}, 3, 2, 1<<20)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.engines[2].Enqueue(dataTo(1, 2, 1))
	at := r.clock.SubslotStart(0, 5)
	r.k.At(at, func() { r.engines[0].execute(5, 2*2+0) })
	r.k.At(at, func() { r.engines[2].execute(5, 2*2+1) })
	r.k.Run(at + 10*sim.Millisecond)

	if got := r.engines[1].Base().Stats().Delivered; got != 0 {
		t.Fatalf("sink delivered %d frames without capture, want 0", got)
	}
	for _, i := range []int{0, 2} {
		if s := r.engines[i].Base().Stats(); s.TxFail != 1 {
			t.Errorf("sender %d stats: %+v, want TxFail=1", i, s)
		}
		if es := r.engines[i].EngineStats(); es.CapturedOver != 0 {
			t.Errorf("sender %d: CapturedOver=%d, want 0", i, es.CapturedOver)
		}
	}
}

// TestCapturedOverNeedsShaping stages the capture of
// TestCaptureSharingDeterministic on QMA's configuration with two levels but
// the shaping switch off: the weak sender overhears the same foreign ACK,
// yet takes the full send-failure punishment.
func TestCapturedOverNeedsShaping(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, func(_ int, c *Config) {
		c.MAC.MaxRetries = -1
		c.Levels = 2
		c.LevelStepDB = 6
		c.StartupSubslots = 1 << 20
	})
	r.m.SetCaptureThreshold(6)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.engines[2].Enqueue(dataTo(1, 2, 1))
	at := r.clock.SubslotStart(0, 5)
	r.k.At(at, func() { r.engines[0].execute(5, 2*2+0) })
	r.k.At(at, func() { r.engines[2].execute(5, 2*2+1) })
	r.k.Run(at + 10*sim.Millisecond)

	weak := r.engines[2]
	if s := weak.Base().Stats(); s.TxFail != 1 {
		t.Fatalf("weak sender stats: %+v, want TxFail=1", s)
	}
	if es := weak.EngineStats(); es.CapturedOver != 0 {
		t.Errorf("CapturedOver = %d without shaping, want 0", es.CapturedOver)
	}
	if q, want := weak.Learner().Table().Q(5, 2*2+1), qTarget(RewardSendFail); q != want {
		t.Errorf("Q(5, QSend@1) = %v, want the full send-failure target %v", q, want)
	}
}

// TestSuccessBonusPerLevel pins the power-aware success reward: an
// uncontested reduced-level transmission earns the level bonus on top of the
// send-success reward.
func TestSuccessBonusPerLevel(t *testing.T) {
	r := newLevelsRig(t, [][2]int{{0, 1}}, 2, 3, 1<<20)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	at := r.clock.SubslotStart(0, 3)
	r.k.At(at, func() { r.engines[0].execute(3, 2*3+2) })
	r.k.Run(at + 10*sim.Millisecond)

	e := r.engines[0]
	if s := e.Base().Stats(); s.TxSuccess != 1 {
		t.Fatalf("stats: %+v, want one success", s)
	}
	es := e.EngineStats()
	if es.SuccessByLevel[2] != 1 {
		t.Errorf("SuccessByLevel = %v, want level 2 credited", es.SuccessByLevel)
	}
	if q, want := e.Learner().Table().Q(3, 2*3+2), qTarget(RewardSendSuccess+2*LevelSuccessBonus); q != want {
		t.Errorf("Q(3, QSend@2) = %v, want %v", q, want)
	}
}

// TestActionSpaceRoundTrip pins the kind-major flattening kind·K + level:
// every (kind, level) pair has its own index, split inverts it, and at K=1
// the indices are exactly QMA's actions.
func TestActionSpaceRoundTrip(t *testing.T) {
	r := newLevelsRig(t, [][2]int{{0, 1}}, 2, 3, 0)
	e := r.engines[0]
	if got := e.Learner().Table().Actions(); got != 9 {
		t.Fatalf("K=3 action space is %d, want 9", got)
	}
	seen := map[int]bool{}
	for _, kind := range []Action{QBackoff, QCCA, QSend} {
		for level := 0; level < 3; level++ {
			a := int(kind)*3 + level
			if k, l := e.split(a); k != kind || l != level {
				t.Errorf("(%v,%d) flattens to %d, which splits to (%v,%d)", kind, level, a, k, l)
			}
			seen[a] = true
		}
	}
	if len(seen) != 9 {
		t.Errorf("flattening collided: %d distinct actions, want 9", len(seen))
	}
	if got := float64(2) * e.stepDB; got != 12 {
		t.Errorf("level 2 transmits %v dB below reference, want 12", got)
	}

	qma := newRig(t, [][2]int{{0, 1}}, 2, nil).engines[0]
	for _, kind := range []Action{QBackoff, QCCA, QSend} {
		if k, l := qma.split(int(kind)); k != kind || l != 0 {
			t.Errorf("K=1: action %d splits to (%v,%d), want (%v,0)", kind, k, l, kind)
		}
	}
}

// TestCCAActionTransmitsOnIdleAndBacksOffOnBusy pins the QCCA kind of the
// extended action space: on an idle channel a forced (QCCA, level) action
// transmits at the level's power; with a neighbour mid-transmission the CCA
// reports busy, nothing is sent, and the action's Q-entry takes the
// RewardCCABusy update.
func TestCCAActionTransmitsOnIdleAndBacksOffOnBusy(t *testing.T) {
	r := newLevelsRig(t, [][2]int{{0, 1}, {1, 2}}, 3, 2, 1<<20)
	e := r.engines[0]
	e.Enqueue(dataTo(1, 0, 1))
	at := r.clock.SubslotStart(0, 4)
	r.k.At(at, func() { e.execute(4, 1*2+1) })
	r.k.Run(at + 10*sim.Millisecond)
	if s := e.Base().Stats(); s.TxSuccess != 1 {
		t.Fatalf("idle-channel CCA action: %+v, want one success", s)
	}
	if es := e.EngineStats(); es.ActionCount[QCCA] != 1 || es.LevelCount[1] != 1 {
		t.Errorf("engine stats %+v, want one QCCA at level 1", es)
	}

	// Busy case: the neighbour transmits across the CCA window, so the
	// assessment at 0 reports busy.
	r2 := newLevelsRig(t, [][2]int{{0, 1}, {1, 2}}, 3, 2, 1<<20)
	e2 := r2.engines[0]
	e2.Enqueue(dataTo(1, 0, 1))
	jam := &frame.Frame{Kind: frame.Data, Src: 1, Dst: frame.Broadcast, MPDUBytes: 60}
	at2 := r2.clock.SubslotStart(0, 4)
	r2.k.At(at2, func() { r2.m.StartTX(1, jam, 0) })
	r2.k.At(at2, func() { e2.execute(4, 1*2+0) })
	r2.k.Run(at2 + 10*sim.Millisecond)
	if s := e2.Base().Stats(); s.TxAttempts != 0 {
		t.Fatalf("busy-channel CCA action transmitted anyway: %+v", s)
	}
	if q, want := e2.Learner().Table().Q(4, 1*2+0), qTarget(RewardCCABusy); q != want {
		t.Errorf("Q(4, QCCA@0) = %v, want the CCA-busy target %v", q, want)
	}
}

// TestStartupPunishesEveryLevel pins §4.3 on the extended action space: a
// cautious-startup subslot with overheard traffic punishes the QCCA and
// QSend entries of every power level, and leaves the backoff rows to Eq. 6.
func TestStartupPunishesEveryLevel(t *testing.T) {
	const levels = 3
	r := newLevelsRig(t, [][2]int{{0, 1}}, 2, levels, 1<<20)
	e := r.engines[0]
	jam := &frame.Frame{Kind: frame.Data, Src: 1, Dst: frame.Broadcast, MPDUBytes: 20}
	at := r.clock.SubslotStart(0, 2)
	r.k.At(at+sim.Microsecond, func() { r.m.StartTX(1, jam, 0) })
	r.k.Run(r.clock.SubslotStart(0, 4))

	tab := e.Learner().Table()
	for level := 0; level < levels; level++ {
		if q, want := tab.Q(2, levels+level), qTarget(StartupPunishCCA); q != want {
			t.Errorf("Q(2, QCCA@%d) = %v, want the punishment target %v", level, q, want)
		}
		if q, want := tab.Q(2, 2*levels+level), qTarget(StartupPunishSend); q != want {
			t.Errorf("Q(2, QSend@%d) = %v, want the punishment target %v", level, q, want)
		}
	}
	if q, want := tab.Q(2, int(QBackoff)), qTarget(RewardBackoffOverhear); q != want {
		t.Errorf("Q(2, QBackoff@0) = %v, want the overhear target %v", q, want)
	}
}
