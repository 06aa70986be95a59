package dsme

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// capRecorder stands in for a node's CAP engine: it records the command
// frames the node hands it instead of contending for the channel.
type capRecorder struct{ sent []*frame.Frame }

var _ mac.Engine = (*capRecorder)(nil)

func (c *capRecorder) Deliver(*frame.Frame)              {}
func (c *capRecorder) Start()                            {}
func (c *capRecorder) Base() *mac.Base                   { return nil }
func (c *capRecorder) Reboot()                           {}
func (c *capRecorder) TxDone(*frame.Frame, uint32, bool) {}
func (c *capRecorder) Enqueue(f *frame.Frame) bool {
	c.sent = append(c.sent, f)
	return true
}

// TestHandshakesFromDistantIDsDoNotCollide runs two allocation handshakes
// at one parent from requesters whose node IDs differ by 4096. Their
// handshake IDs must not collide at the responder: both slots end up
// allocated, each to its own requester.
func TestHandshakesFromDistantIDsDoNotCollide(t *testing.T) {
	k := sim.NewKernel()
	cfg := superframe.DefaultConfig()
	clock := superframe.NewClock(cfg)
	medium := radio.NewMedium(k, radio.NewGraphTopology(2), sim.NewRand(1))
	metrics := &Metrics{}
	newNode := func(id, parent frame.NodeID) (*Node, *capRecorder) {
		n := NewNode(NodeConfig{
			ID: id, Kernel: k, Medium: medium, Clock: clock,
			Parent: parent, Rng: sim.NewRandStream(1, uint64(id)), Metrics: metrics,
		})
		c := &capRecorder{}
		n.AttachCAP(c)
		return n, c
	}
	// onlyFree leaves n a single free slot, so its request is predictable.
	onlyFree := func(n *Node, idx int) superframe.GTS {
		for i := 0; i < cfg.GTSPerMultiframe(); i++ {
			if i != idx {
				n.Slots().Set(superframe.GTSFromIndex(cfg, i), SlotNeighbor, -1)
			}
		}
		return superframe.GTSFromIndex(cfg, idx)
	}
	parent, parentCAP := newNode(0, -1)
	a, aCAP := newNode(1, 0)
	b, bCAP := newNode(1+4096, 0)
	// Different times, so the parent has no time conflict between them.
	gA, gB := onlyFree(a, 0), onlyFree(b, 50)

	a.startAllocation()
	b.startAllocation()
	parent.handleCommand(aCAP.sent[0]) // requests
	parent.handleCommand(bCAP.sent[0])
	a.handleCommand(parentCAP.sent[0]) // responses
	b.handleCommand(parentCAP.sent[1])
	parent.handleCommand(aCAP.sent[1]) // notifies
	parent.handleCommand(bCAP.sent[1])

	for _, c := range []struct {
		req  *Node
		g    superframe.GTS
		peer frame.NodeID
	}{{a, gA, 1}, {b, gB, 1 + 4096}} {
		if st := c.req.Slots().State(c.g); st != SlotTX {
			t.Errorf("requester %d: %v is %v, want tx", c.peer, c.g, st)
		}
		if st, p := parent.Slots().State(c.g), parent.Slots().Peer(c.g); st != SlotRX || p != c.peer {
			t.Errorf("parent: %v is %v with peer %d, want rx with peer %d", c.g, st, p, c.peer)
		}
	}
}

// TestGTSLinkRetriesAndReturnsDeadSlot drives the GTS link's failure path:
// node 1 owns one TX slot towards parent 0, but the topology has no links,
// so no ACK ever arrives. Each of its two queued primary frames takes
// NR + 1 = 4 attempts and is dropped; the eighth failure in a row makes the
// dead-slot watchdog return the slot with a deallocation handshake.
func TestGTSLinkRetriesAndReturnsDeadSlot(t *testing.T) {
	k := sim.NewKernel()
	cfg := superframe.DefaultConfig()
	clock := superframe.NewClock(cfg)
	medium := radio.NewMedium(k, radio.NewGraphTopology(2), sim.NewRand(1))
	n := NewNode(NodeConfig{
		ID: 1, Kernel: k, Medium: medium, Clock: clock,
		Parent: 0, Rng: sim.NewRand(2), Metrics: &Metrics{},
	})
	medium.Attach(1, n)
	rec := &capRecorder{}
	n.AttachCAP(rec) // not started: the slot controller stays idle

	g := superframe.GTSFromIndex(cfg, 5)
	n.Slots().Set(g, SlotTX, 0)
	n.armSlot(g)
	for seq := uint32(1); seq <= 2; seq++ {
		f := &frame.Frame{Kind: frame.Data, Origin: 1, Sink: 0, Seq: seq, MPDUBytes: 80}
		if !n.Enqueue(f) {
			t.Fatalf("frame %d rejected", seq)
		}
	}
	first := clock.NextGTSStart(0, g)
	k.Run(first + 7*cfg.MultiframeDuration() + clock.GTSDuration())

	if st := n.Base().Stats(); st.TxAttempts != 8 || st.TxFail != 8 || st.RetryDrops != 2 {
		t.Errorf("link stats: %d attempts, %d failures, %d retry drops; want 8, 8, 2",
			st.TxAttempts, st.TxFail, st.RetryDrops)
	}
	if got := n.Stats().DeallocStarted; got != 1 {
		t.Errorf("watchdog started %d deallocations, want 1", got)
	}
	if len(rec.sent) != 1 || rec.sent[0].Kind != frame.GTSRequest || !rec.sent[0].Cmd.Deallocate || rec.sent[0].Cmd.GTS != g {
		t.Fatalf("CAP got %+v, want one deallocation request for %v", rec.sent, g)
	}
}
