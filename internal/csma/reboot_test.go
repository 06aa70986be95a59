package csma

import (
	"testing"

	"qma/internal/sim"
)

// TestRebootOrphansPendingStep reboots a node while a backoff expiry or a
// CCA completion is pending. The stale step must still fire — the kernel
// event count is pinned, so cancelling it fails the test — but as a no-op:
// it neither transmits the flushed frame nor touches the counters, and the
// transaction started after the reboot completes normally.
func TestRebootOrphansPendingStep(t *testing.T) {
	cases := []struct {
		variant Variant
		during  string
		// ccas is the CCAs the post-reboot transaction evaluates; an
		// orphaned CCA window never counts as an attempt.
		ccas      uint64
		processed uint64
	}{
		{Unslotted, "backoff", 1, 10},
		{Unslotted, "cca", 1, 11},
		{Slotted, "backoff", 2, 12},
		{Slotted, "cca", 2, 13},
	}
	for _, c := range cases {
		t.Run(c.variant.String()+"/"+c.during, func(t *testing.T) {
			r := newRig(t, [][2]int{{0, 1}}, 2, c.variant)
			e := r.engines[0]
			e.Enqueue(dataTo(1, 0, 1))
			if c.during == "cca" {
				// Step until the first CCA window is open.
				for !e.Base().Busy() {
					r.k.Run(r.k.Now() + sim.Microsecond)
				}
			}
			if s := e.Base().Stats(); s.TxAttempts != 0 {
				t.Fatalf("transmitted before the reboot: %+v", s)
			}
			e.Reboot()
			e.Enqueue(dataTo(1, 0, 2))
			r.k.Run(sim.Second)

			s := e.Base().Stats()
			if s.TxAttempts != 1 || s.TxSuccess != 1 || s.Reboots != 1 {
				t.Fatalf("MAC stats after reboot: %+v", s)
			}
			if got := r.engines[1].Base().Stats().Delivered; got != 1 {
				t.Fatalf("receiver delivered %d frames, want 1", got)
			}
			es := e.EngineStats()
			if es.Backoffs != 2 || es.CCAAttempts != c.ccas || es.CCABusy != 0 || es.AccessFailures != 0 {
				t.Fatalf("engine stats %+v, want 2 backoffs and %d clear CCAs", es, c.ccas)
			}
			if got := r.k.Processed(); got != c.processed {
				t.Fatalf("kernel processed %d events, want %d", got, c.processed)
			}
		})
	}
}
