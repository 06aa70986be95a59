package aloha

import (
	"testing"

	"qma/internal/sim"
)

// TestRebootOrphansPendingStep reboots a node while its retransmission
// backoff is pending. The stale step must still fire — the kernel event
// count is pinned, so cancelling it fails the test — but as a no-op: it
// neither retransmits the flushed frame nor touches the counters, and the
// transaction started after the reboot completes normally.
func TestRebootOrphansPendingStep(t *testing.T) {
	cases := []struct {
		variant   Variant
		want      Stats
		processed uint64
	}{
		{Pure, Stats{Backoffs: 1, Deferrals: 1}, 11},
		{Slotted, Stats{Backoffs: 1}, 12},
	}
	for _, c := range cases {
		t.Run(c.variant.String(), func(t *testing.T) {
			// Node 2 is out of node 0's range: the first unicast goes
			// unacknowledged and node 0 backs off to retransmit it.
			r := newRig(t, [][2]int{{0, 1}}, 3, c.variant, nil)
			e := r.engines[0]
			e.Enqueue(dataTo(2, 0, 1))
			for e.Base().Stats().TxFail == 0 {
				r.k.Run(r.k.Now() + sim.Microsecond)
			}
			if es := e.EngineStats(); es.Backoffs != 1 {
				t.Fatalf("no retransmission backoff pending: %+v", es)
			}
			e.Reboot()
			e.Enqueue(dataTo(1, 0, 2))
			r.k.Run(sim.Second)

			s := e.Base().Stats()
			if s.TxAttempts != 2 || s.TxFail != 1 || s.TxSuccess != 1 || s.Reboots != 1 {
				t.Fatalf("MAC stats after reboot: %+v", s)
			}
			if got := r.engines[1].Base().Stats().Delivered; got != 1 {
				t.Fatalf("receiver delivered %d frames, want 1", got)
			}
			if es := e.EngineStats(); es != c.want {
				t.Fatalf("engine stats %+v, want %+v", es, c.want)
			}
			if got := r.k.Processed(); got != c.processed {
				t.Fatalf("kernel processed %d events, want %d", got, c.processed)
			}
		})
	}
}
