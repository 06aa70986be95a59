package frame

import (
	"testing"
	"testing/quick"
	"unsafe"

	"qma/internal/sim"
)

func TestAirTime(t *testing.T) {
	cases := []struct {
		mpdu int
		want sim.Time
	}{
		// (mpdu + 6 PHY bytes) * 2 symbols * 16 µs
		{5, (5 + 6) * 2 * 16},     // ACK: 352 µs
		{50, (50 + 6) * 2 * 16},   // 1792 µs
		{127, (127 + 6) * 2 * 16}, // max frame: 4256 µs
	}
	for _, c := range cases {
		if got := AirTime(c.mpdu); got != c.want {
			t.Errorf("AirTime(%d) = %v, want %v", c.mpdu, got, c.want)
		}
	}
}

func TestAckConstants(t *testing.T) {
	if AckDuration != 352 {
		t.Errorf("AckDuration = %v µs, want 352", AckDuration)
	}
	// turnaround 192 + ack 352 + margin 128
	if AckWait != 672 {
		t.Errorf("AckWait = %v µs, want 672", AckWait)
	}
}

func TestExchangeDuration(t *testing.T) {
	uni := &Frame{Dst: 1, MPDUBytes: 50}
	if got, want := uni.ExchangeDuration(), AirTime(50)+AckWait; got != want {
		t.Errorf("unicast ExchangeDuration = %v, want %v", got, want)
	}
	bc := &Frame{Dst: Broadcast, MPDUBytes: 50}
	if got, want := bc.ExchangeDuration(), AirTime(50); got != want {
		t.Errorf("broadcast ExchangeDuration = %v, want %v", got, want)
	}
}

func TestDataFrameSpansTwoToThreeSubslots(t *testing.T) {
	// The paper (§6.1.3) states transmissions span up to 3 subslots. With the
	// default 1120 µs (70-symbol) subslot, a 50-byte-payload frame plus its ACK
	// exchange must fit in (2, 3] subslots.
	const subslot = 1120
	total := AirTime(50+21) + TurnaroundTime + AckDuration // 71-byte MPDU with header
	if total <= 2*subslot || total > 3*subslot {
		t.Errorf("data+ack = %v µs, want in (2240, 3360]", total)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Data: "DATA", Ack: "ACK", Beacon: "BEACON",
		GTSRequest: "GTS-REQ", GTSResponse: "GTS-RESP", GTSNotify: "GTS-NOTIFY",
		RouteDiscovery: "ROUTE-DISC", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind.String() = %q, want %q", got, want)
		}
	}
}

func TestFrameBroadcast(t *testing.T) {
	f := &Frame{Kind: GTSResponse, Src: 1, Dst: Broadcast}
	if !f.IsBroadcast() {
		t.Error("Dst=Broadcast should report IsBroadcast")
	}
	g := &Frame{Kind: Data, Src: 1, Dst: 2}
	if g.IsBroadcast() {
		t.Error("unicast frame reported as broadcast")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4)
	frames := []*Frame{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	for _, f := range frames {
		if !q.Push(f) {
			t.Fatalf("Push(%d) rejected below capacity", f.Seq)
		}
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.Head().Seq != 1 {
		t.Errorf("Head seq = %d, want 1", q.Head().Seq)
	}
	for i, want := range []uint32{1, 2, 3} {
		got := q.Pop()
		if got == nil || got.Seq != want {
			t.Fatalf("Pop %d = %v, want seq %d", i, got, want)
		}
	}
	if q.Pop() != nil {
		t.Error("Pop on empty queue should return nil")
	}
	if q.Head() != nil {
		t.Error("Head on empty queue should return nil")
	}
}

func TestQueueDropAccounting(t *testing.T) {
	q := NewQueue(2)
	q.Push(&Frame{Seq: 1})
	q.Push(&Frame{Seq: 2})
	if q.Push(&Frame{Seq: 3}) {
		t.Error("Push above capacity accepted")
	}
	if q.Len() != 2 || q.At(1).Seq != 2 {
		t.Errorf("rejected Push changed the queue: len %d", q.Len())
	}
	if !q.Full() {
		t.Error("queue at capacity should be Full")
	}
}

func TestQueueDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		q := NewQueue(capacity)
		n := 0
		for q.Push(&Frame{}) {
			n++
		}
		if n != DefaultQueueCap {
			t.Errorf("NewQueue(%d) holds %d frames, want %d", capacity, n, DefaultQueueCap)
		}
	}
}

func TestQueueClear(t *testing.T) {
	q := NewQueue(4)
	q.Push(&Frame{})
	q.Push(&Frame{})
	q.Clear()
	if !q.Empty() {
		t.Error("queue not empty after Clear")
	}
}

// Property: a queue never exceeds its capacity, Push rejects exactly when
// it is full, and Len equals accepted minus popped frames under arbitrary
// push/pop sequences.
func TestQueueInvariants(t *testing.T) {
	prop := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		q := NewQueue(capacity)
		accepted, popped := 0, 0
		var seq uint32
		for _, push := range ops {
			if push {
				seq++
				full := q.Full()
				if q.Push(&Frame{Seq: seq}) == full {
					return false
				}
				if !full {
					accepted++
				}
			} else if q.Pop() != nil {
				popped++
			}
			if q.Len() > capacity {
				return false
			}
		}
		return q.Len() == accepted-popped
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FIFO order is preserved for any interleaving.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		q := NewQueue(64)
		var next uint32
		var expect uint32 = 1
		for _, push := range ops {
			if push {
				next++
				q.Push(&Frame{Seq: next})
			} else if f := q.Pop(); f != nil {
				if f.Seq != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFrameSizeClass pins a frame, command included, to the runtime's
// 80-byte allocation size class; the next class is 96 bytes.
func TestFrameSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 80 {
		t.Errorf("Frame is %d bytes, want at most 80", size)
	}
}
