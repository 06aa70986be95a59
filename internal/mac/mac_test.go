package mac

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// atFunc schedules fn at t as the kernel's one event form, a static
// callback over a record: here the record is the closure.
func atFunc(k *sim.Kernel, t sim.Time, fn func()) sim.EventID { return k.AtCall(t, callFunc, fn) }

// afterFunc schedules fn d after the current instant.
func afterFunc(k *sim.Kernel, d sim.Time, fn func()) sim.EventID {
	return k.AtCall(k.Now()+d, callFunc, fn)
}

func callFunc(fn any) { fn.(func())() }

// rig wires two Bases over a 2-node link (plus an optional third hidden
// node) for direct MAC-layer tests. Each Base is owned by a nullEngine that
// hands the transmission outcomes to the test.
type rig struct {
	k       *sim.Kernel
	m       *radio.Medium
	engines []*nullEngine
	bases   []*Base
}

// send transmits f from node i and routes its outcome to done.
func (r *rig) send(i int, f *frame.Frame, done func(success bool)) {
	r.engines[i].onTx = func(_ *frame.Frame, _ uint32, success bool) { done(success) }
	r.bases[i].SendFrame(f)
}

func newRig(t *testing.T, n int, cfgs []Config) *rig {
	t.Helper()
	g := radio.NewGraphTopology(n)
	for i := 1; i < n; i++ {
		g.AddLink(0, frame.NodeID(i))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(1))
	clock := superframe.NewClock(superframe.DefaultConfig())
	r := &rig{k: k, m: m}
	for i := 0; i < n; i++ {
		cfg := Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock, MaxRetries: DefaultMaxRetries}
		if i < len(cfgs) {
			c := cfgs[i]
			c.ID, c.Kernel, c.Medium, c.Clock, c.MaxRetries = frame.NodeID(i), k, m, clock, DefaultMaxRetries
			cfg = c
		}
		e := newNullEngine(cfg)
		b := &e.base
		r.engines = append(r.engines, e)
		r.bases = append(r.bases, b)
		m.Attach(frame.NodeID(i), b)
	}
	return r
}

func testData(src, dst frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: dst, Origin: src, Sink: dst, Seq: seq, MPDUBytes: 30}
}

func TestUnicastIsAcknowledged(t *testing.T) {
	r := newRig(t, 2, nil)
	f := testData(0, 1, 1)
	var outcome *bool
	r.bases[0].Enqueue(f)
	r.send(0, f, func(ok bool) { outcome = &ok })
	r.k.Run(sim.Never)
	if outcome == nil || !*outcome {
		t.Fatalf("unicast outcome = %v, want success", outcome)
	}
	s0, s1 := r.bases[0].Stats(), r.bases[1].Stats()
	if s0.TxAttempts != 1 || s0.TxSuccess != 1 || s0.TxFail != 0 {
		t.Errorf("sender stats: %+v", s0)
	}
	if s1.AcksSent != 1 || s1.Delivered != 1 {
		t.Errorf("receiver stats: %+v", s1)
	}
}

func TestUnicastWithoutReceiverTimesOut(t *testing.T) {
	r := newRig(t, 2, nil)
	f := testData(0, 5, 1) // destination does not exist
	var outcome *bool
	r.bases[0].Enqueue(f)
	at := r.k.Now()
	r.send(0, f, func(ok bool) { outcome = &ok })
	r.k.Run(sim.Never)
	if outcome == nil || *outcome {
		t.Fatalf("outcome = %v, want failure", outcome)
	}
	// The node was busy exactly until the ACK deadline.
	if want := at + f.Duration() + frame.AckWait; r.bases[0].BusyUntil() != want {
		t.Errorf("BusyUntil = %v, want %v", r.bases[0].BusyUntil(), want)
	}
}

func TestBroadcastSucceedsWithoutAck(t *testing.T) {
	r := newRig(t, 3, nil)
	f := &frame.Frame{Kind: frame.RouteDiscovery, Src: 0, Dst: frame.Broadcast, Origin: 0, Sink: frame.Broadcast, Seq: 1, MPDUBytes: 30}
	var outcome *bool
	r.bases[0].Enqueue(f)
	r.send(0, f, func(ok bool) { outcome = &ok })
	r.k.Run(sim.Never)
	if outcome == nil || !*outcome {
		t.Fatalf("broadcast outcome = %v, want optimistic success", outcome)
	}
	if r.bases[1].Stats().AcksSent != 0 {
		t.Error("broadcast was acknowledged")
	}
}

// TestBroadcastOutcomesKeepTheirContext starts a second broadcast at the
// very instant the first one ends, before the first one's completion
// fires (the boundary-tick case core.Engine.startTX describes). Each
// outcome must reach TxDone with its own frame and context word, in the
// order the broadcasts started.
func TestBroadcastOutcomesKeepTheirContext(t *testing.T) {
	r := newRig(t, 2, nil)
	bcast := func(seq uint32) *frame.Frame {
		return &frame.Frame{Kind: frame.RouteDiscovery, Src: 0, Dst: frame.Broadcast, Origin: 0, Sink: frame.Broadcast, Seq: seq, MPDUBytes: 30}
	}
	a, b := bcast(1), bcast(2)
	type outcome struct {
		f   *frame.Frame
		ctx uint32
		ok  bool
	}
	var got []outcome
	r.engines[0].onTx = func(f *frame.Frame, ctx uint32, ok bool) { got = append(got, outcome{f, ctx, ok}) }
	// Scheduled before a goes on the air, this event precedes a's
	// completion at a's end.
	atFunc(r.k, a.Duration(), func() { r.bases[0].SendFrameAt(b, 0, 22) })
	r.bases[0].SendFrameAt(a, 0, 11)
	r.k.Run(sim.Never)
	want := []outcome{{a, 11, true}, {b, 22, true}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("outcomes = %+v, want %+v", got, want)
	}
	if st := r.bases[0].Stats(); st.TxSuccess != 2 {
		t.Errorf("TxSuccess = %d, want 2", st.TxSuccess)
	}
}

func TestFinishFrameRetryPolicy(t *testing.T) {
	r := newRig(t, 2, nil)
	b := r.bases[0]
	f := testData(0, 1, 1)
	b.Enqueue(f)
	// NR=3: three failures keep the frame, the fourth drops it.
	for i := 0; i < 3; i++ {
		if done := b.FinishFrame(f, false); done {
			t.Fatalf("frame dropped after %d failures", i+1)
		}
	}
	if done := b.FinishFrame(f, false); !done {
		t.Fatal("frame not dropped after NR+1 failures")
	}
	if st := b.Stats(); st.RetryDrops != 1 {
		t.Errorf("RetryDrops = %d, want 1", st.RetryDrops)
	}
	if !b.Queue().Empty() {
		t.Error("queue not empty after drop")
	}
}

func TestDoneCallbackFiresOnce(t *testing.T) {
	calls, lastOK := 0, true
	r := newRig(t, 2, []Config{{OnFrameFinished: func(_ *frame.Frame, ok bool) { calls++; lastOK = ok }}})
	b := r.bases[0]
	f := testData(0, 1, 1)
	b.Enqueue(f)
	for i := 0; i < 4; i++ {
		b.FinishFrame(f, false)
	}
	if calls != 1 || lastOK {
		t.Errorf("OnFrameFinished fired %d times (ok=%v), want once with false", calls, lastOK)
	}
}

func TestDuplicateRejection(t *testing.T) {
	// Each step delivers Data(origin 0, seq) to node 1, after a power cycle
	// of node 1 when reboot is set. Every copy is ACKed, duplicates included.
	type step struct {
		seq    uint32
		reboot bool
	}
	for _, tc := range []struct {
		name           string
		steps          []step
		delivered, dup uint64
	}{
		{"same seq twice", []step{{seq: 7}, {seq: 7}}, 1, 1},
		{"older seq after newer", []step{{seq: 7}, {seq: 3}}, 1, 1},
		{"newer seq after older", []step{{seq: 3}, {seq: 7}}, 2, 0},
		// Seq 0 from an origin never heard before is fresh, not a repeat of
		// a missing entry's zero value.
		{"first frame seq 0", []step{{seq: 0}}, 1, 0},
		{"seq 0 repeated", []step{{seq: 0}, {seq: 0}}, 1, 1},
		{"reboot forgets history", []step{{seq: 0}, {seq: 0, reboot: true}}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delivered := uint64(0)
			r := newRig(t, 2, []Config{{}, {OnSinkDeliver: func(*frame.Frame) { delivered++ }}})
			for _, st := range tc.steps {
				if st.reboot {
					r.bases[1].Reboot()
				}
				r.bases[1].Deliver(testData(0, 1, st.seq))
				r.k.Run(sim.Never)
			}
			st := r.bases[1].Stats()
			if st.Delivered != tc.delivered || st.Duplicates != tc.dup {
				t.Errorf("Delivered/Duplicates = %d/%d, want %d/%d", st.Delivered, st.Duplicates, tc.delivered, tc.dup)
			}
			if want := uint64(len(tc.steps)); st.AcksSent != want {
				t.Errorf("AcksSent = %d, want %d (duplicates are re-ACKed)", st.AcksSent, want)
			}
			if delivered != tc.delivered {
				t.Errorf("sink deliveries = %d, want %d", delivered, tc.delivered)
			}
		})
	}
}

// TestDuplicateRejectionUnderRetransmission drives the full ACK-loss round
// trip instead of injecting duplicates by hand: the data frame is delivered
// but its ACK is killed by a deep fade at the sender, the sender's retry
// policy retransmits the same frame, and the receiver must reject the copy
// as a duplicate while still re-ACKing it — so the retransmission succeeds
// and the frame finally leaves the queue, delivered exactly once.
func TestDuplicateRejectionUnderRetransmission(t *testing.T) {
	delivered := 0
	r := newRig(t, 2, []Config{{}, {OnSinkDeliver: func(*frame.Frame) { delivered++ }}})
	sender, receiver := r.bases[0], r.bases[1]

	f := testData(0, 1, 7)
	sender.Enqueue(f)

	outcomes := []bool{}
	var send func()
	send = func() {
		r.send(0, f, func(success bool) {
			outcomes = append(outcomes, success)
			if sender.FinishFrame(f, success) {
				return
			}
			// Retry once the fade is over and the node is idle again.
			atFunc(r.k, sender.BusyUntil()+5*sim.Millisecond, send)
		})
	}
	send()
	// The data frame delivers at its airtime end; fade the sender from just
	// after that until past the ACK arrival, so only the ACK is lost.
	atFunc(r.k, f.Duration()+1*sim.Microsecond, func() {
		r.m.SetFadeUntil(0, f.Duration()+frame.TurnaroundTime+frame.AckDuration+10*sim.Microsecond)
	})
	r.k.Run(1 * sim.Second)

	if want := []bool{false, true}; len(outcomes) != 2 || outcomes[0] != want[0] || outcomes[1] != want[1] {
		t.Fatalf("outcomes = %v, want [false true] (ACK lost, retry ACKed)", outcomes)
	}
	if f.Retries != 1 {
		t.Errorf("Retries = %d, want 1", f.Retries)
	}
	rs := receiver.Stats()
	if rs.Delivered != 1 || delivered != 1 {
		t.Errorf("Delivered = %d (sink callback %d), want exactly once", rs.Delivered, delivered)
	}
	if rs.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1 (the retransmission)", rs.Duplicates)
	}
	if rs.AcksSent != 2 {
		t.Errorf("AcksSent = %d, want 2 (duplicates are re-ACKed)", rs.AcksSent)
	}
	ss := sender.Stats()
	if ss.TxFail != 1 || ss.TxSuccess != 1 || ss.RetryDrops != 0 {
		t.Errorf("sender stats: %+v", ss)
	}
	if !sender.Queue().Empty() {
		t.Error("acknowledged frame still queued")
	}
}

type tableRouter map[frame.NodeID]frame.NodeID

func (r tableRouter) NextHop(from, sink frame.NodeID) (frame.NodeID, bool) {
	h, ok := r[from]
	return h, ok
}

func TestForwarding(t *testing.T) {
	router := tableRouter{1: 0}
	r := newRig(t, 3, []Config{{}, {Router: router}, {}})
	// Node 2 sends to node 1 with final sink 0: node 1 must re-queue it.
	f := testData(2, 1, 1)
	f.Sink = 0
	r.bases[1].Deliver(f)
	st := r.bases[1].Stats()
	if st.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", st.Forwarded)
	}
	fwd := r.bases[1].Queue().Head()
	if fwd == nil || fwd.Dst != 0 || fwd.Origin != 2 || fwd.Seq != 1 {
		t.Fatalf("forwarded frame wrong: %+v", fwd)
	}
}

func TestQueueLevelIntegral(t *testing.T) {
	r := newRig(t, 1, nil)
	b := r.bases[0]
	b.ResetQueueIntegral()
	b.Enqueue(testData(0, 0, 1))
	// One frame queued for 1000 µs, then a second joins for another 1000 µs.
	afterFunc(r.k, 1000, func() { b.Enqueue(testData(0, 0, 2)) })
	r.k.Run(2000)
	got := b.AvgQueueLevel()
	if got < 1.49 || got > 1.51 { // (1*1000 + 2*1000) / 2000
		t.Errorf("AvgQueueLevel = %v, want 1.5", got)
	}
}

func TestNeighborQueueStaleness(t *testing.T) {
	sf := superframe.DefaultConfig().SuperframeDuration()
	// overhear delivers a data frame from src that is not addressed to node
	// 0, so it only feeds the neighbour table.
	overhear := func(b *Base, src frame.NodeID, level uint8) {
		f := testData(src, 9, 1)
		f.QueueLevel = level
		b.Deliver(f)
	}
	for _, tc := range []struct {
		name string
		run  func(r *rig, b *Base)
		want float64
	}{
		{"single fresh entry", func(r *rig, b *Base) { overhear(b, 1, 6) }, 6},
		// After the staleness window the entry must be gone (the saturation
		// deadlock guard).
		{"single stale entry", func(r *rig, b *Base) {
			overhear(b, 1, 6)
			r.k.Run(17 * sf)
		}, 0},
		{"neighbour heard twice counts once at its latest level", func(r *rig, b *Base) {
			overhear(b, 1, 2)
			overhear(b, 1, 6)
		}, 6},
		{"stale entry dropped, fresh one averaged", func(r *rig, b *Base) {
			overhear(b, 1, 6)
			r.k.Run(10 * sf)
			overhear(b, 2, 2)
			r.k.Run(17 * sf)
		}, 2},
		{"acks and own frames ignored", func(r *rig, b *Base) {
			b.Deliver(&frame.Frame{Kind: frame.Ack, Src: 1, Dst: 2, Seq: 1, QueueLevel: 8, MPDUBytes: frame.AckMPDUBytes})
			overhear(b, 0, 8)
			overhear(b, 2, 3)
		}, 3},
		{"reboot forgets everything", func(r *rig, b *Base) {
			overhear(b, 1, 6)
			overhear(b, 2, 4)
			b.Reboot()
		}, 0},
		{"relearned after reboot", func(r *rig, b *Base) {
			overhear(b, 1, 6)
			b.Reboot()
			overhear(b, 1, 1)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, nil)
			b := r.bases[0]
			tc.run(r, b)
			if got := b.AvgNeighborQueue(); got != tc.want {
				t.Errorf("AvgNeighborQueue = %v, want %v", got, tc.want)
			}
		})
	}
	// The table sits on the per-decision path: averaging it and refreshing
	// an already known neighbour allocate nothing.
	t.Run("no allocations", func(t *testing.T) {
		r := newRig(t, 3, nil)
		b := r.bases[0]
		overhear(b, 1, 3)
		overhear(b, 2, 5)
		f := testData(1, 9, 1)
		f.QueueLevel = 3
		if n := testing.AllocsPerRun(100, func() { b.AvgNeighborQueue() }); n != 0 {
			t.Errorf("AvgNeighborQueue: %v allocs/op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() { b.Deliver(f) }); n != 0 {
			t.Errorf("Deliver from a known neighbour: %v allocs/op, want 0", n)
		}
		if got := b.AvgNeighborQueue(); got != 4 {
			t.Errorf("AvgNeighborQueue = %v, want 4", got)
		}
	})
}

func TestCommandHook(t *testing.T) {
	var got *frame.Frame
	r := newRig(t, 2, []Config{{}, {OnCommand: func(f *frame.Frame) { got = f }}})
	req := &frame.Frame{Kind: frame.GTSRequest, Src: 0, Dst: 1, Origin: 0, Sink: 1, Seq: 1, MPDUBytes: 27}
	r.bases[1].Deliver(req)
	if got != req {
		t.Fatal("GTS request did not reach the command hook")
	}
	// Broadcast commands reach the hook too.
	got = nil
	resp := &frame.Frame{Kind: frame.GTSResponse, Src: 0, Dst: frame.Broadcast, Origin: 0, Sink: frame.Broadcast, Seq: 2, MPDUBytes: 29}
	r.bases[1].Deliver(resp)
	if got != resp {
		t.Fatal("GTS response broadcast did not reach the command hook")
	}
}

func TestForwardingFullQueueDropsOnce(t *testing.T) {
	// A frame dropped by a full queue on the forwarding path must be counted
	// exactly once and returned to the pool exactly once — the double-release
	// checker turns a second Put into a panic.
	pool := &frame.Pool{}
	pool.SetChecks(true)
	router := tableRouter{1: 0}
	r := newRig(t, 3, []Config{
		{FramePool: pool},
		{Router: router, FramePool: pool},
		{FramePool: pool},
	})
	// Fill node 1's queue so the forwarded copy cannot fit.
	fillQueue(t, r.bases[1], 9, 0)
	f := testData(2, 1, 1)
	f.Sink = 0
	r.bases[1].Deliver(f)
	st := r.bases[1].Stats()
	if st.Forwarded != 0 {
		t.Errorf("Forwarded = %d, want 0", st.Forwarded)
	}
	if st.QueueDrops != 1 {
		t.Errorf("QueueDrops = %d, want 1", st.QueueDrops)
	}
	if st.DeadlineDrops != 0 {
		t.Errorf("DeadlineDrops = %d, want 0", st.DeadlineDrops)
	}
	// The head frame must be untouched by the drop.
	if h := r.bases[1].Queue().Head(); h == nil || h.Seq != 9 {
		t.Fatalf("queue head = %+v, want the primed frame", h)
	}
}

func TestDropOldestEvictsBehindHead(t *testing.T) {
	pool := &frame.Pool{}
	pool.SetChecks(true)
	var doneOld *bool
	f1, f2, f3 := testData(0, 0, 1), pool.Get(), testData(0, 0, 3)
	*f2 = *testData(0, 0, 2)
	r := newRig(t, 1, []Config{{FramePool: pool, Drop: DropOldest,
		OnFrameFinished: func(f *frame.Frame, ok bool) {
			if f == f2 {
				doneOld = &ok
			}
		}}})
	b := r.bases[0]
	b.Enqueue(f1)
	b.Enqueue(f2)
	fillQueue(t, b, 10, 0)
	if !b.Enqueue(f3) {
		t.Fatal("drop-oldest enqueue rejected the arrival")
	}
	st := b.Stats()
	if want := uint64(frame.DefaultQueueCap + 1); st.QueueDrops != 1 || st.Enqueued != want {
		t.Errorf("stats = %+v, want 1 queue drop and %d enqueued", st, want)
	}
	if doneOld == nil || *doneOld {
		t.Errorf("evicted frame's OnFrameFinished = %v, want failure", doneOld)
	}
	// The in-service head must never be evicted; the arrival sits behind it.
	if h := b.Queue().Head(); h == nil || h.Seq != 1 {
		t.Fatalf("queue head = %+v, want seq 1", h)
	}
	q := b.Queue()
	if q.Len() != frame.DefaultQueueCap || q.At(1).Seq != 10 || q.At(q.Len()-1).Seq != 3 {
		t.Fatalf("queue wrong after eviction: len %d, second seq %d, tail seq %d", q.Len(), q.At(1).Seq, q.At(q.Len()-1).Seq)
	}
}

func TestDeadlineDropEvictsExpired(t *testing.T) {
	pool := &frame.Pool{}
	pool.SetChecks(true)
	deadline := sim.Time(100)
	r := newRig(t, 1, []Config{{FramePool: pool, Drop: DeadlineDrop, DropDeadline: deadline}})
	b := r.bases[0]
	f1, f2 := testData(0, 0, 1), pool.Get()
	*f2 = *testData(0, 0, 2)
	b.Enqueue(f1)
	b.Enqueue(f2) // CreatedAt 0
	r.k.Run(200)  // both queued frames are now past the deadline
	fillQueue(t, b, 10, r.k.Now())
	fresh := testData(0, 0, 3)
	fresh.CreatedAt = r.k.Now()
	if !b.Enqueue(fresh) {
		t.Fatal("deadline-drop enqueue rejected the arrival")
	}
	st := b.Stats()
	if st.DeadlineDrops != 1 || st.QueueDrops != 0 {
		t.Errorf("stats = %+v, want exactly 1 deadline drop", st)
	}
	// Only the non-head expired frame goes; the in-service head stays.
	if h := b.Queue().Head(); h == nil || h.Seq != 1 {
		t.Fatalf("queue head = %+v, want seq 1", h)
	}
}

// fillQueue enqueues frames with consecutive sequence numbers from seq,
// created at createdAt, until b's transmit queue is full.
func fillQueue(t *testing.T, b *Base, seq uint32, createdAt sim.Time) {
	t.Helper()
	for !b.Queue().Full() {
		f := testData(b.ID(), 0, seq)
		f.CreatedAt = createdAt
		if !b.Enqueue(f) {
			t.Fatalf("filling enqueue of seq %d rejected", seq)
		}
		seq++
	}
}

func TestParseDropPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DropPolicy
	}{{"", TailDrop}, {"tail", TailDrop}, {"oldest", DropOldest}, {"deadline", DeadlineDrop}} {
		got, err := ParseDropPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDropPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseDropPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAccessBarringDisabledWithoutRng(t *testing.T) {
	r := newRig(t, 1, nil)
	b := r.bases[0]
	b.SetBarring(0, 100) // even a fully closed gate is inert without an RNG
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("barring engaged without a BarringRng")
	}
	if st := b.Stats(); st.Barred != 0 {
		t.Errorf("Barred = %d, want 0", st.Barred)
	}
}

func TestAccessBarringGateAndEscalation(t *testing.T) {
	r := newRig(t, 1, []Config{{BarringRng: sim.NewRand(1)}})
	b := r.bases[0]
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("default barring factor must be fully open")
	}
	b.SetBarring(0, 100) // p=0: every draw fails
	barred, retry := b.AccessBarred()
	if !barred || retry != 100 {
		t.Fatalf("first bar: barred=%v retry=%v, want true, 100", barred, retry)
	}
	// While the backoff runs, re-polls return the cached horizon without
	// drawing or re-counting.
	barred2, retry2 := b.AccessBarred()
	if !barred2 || retry2 != retry {
		t.Fatalf("cached bar: barred=%v retry=%v", barred2, retry2)
	}
	if st := b.Stats(); st.Barred != 1 {
		t.Errorf("Barred = %d, want 1 (cached re-poll must not count)", st.Barred)
	}
	// Past the horizon the next failed draw escalates the wait (<<1).
	r.k.Run(150)
	barred3, retry3 := b.AccessBarred()
	if !barred3 || retry3 != r.k.Now()+200 {
		t.Fatalf("escalated bar: barred=%v retry=%v, want %v", barred3, retry3, r.k.Now()+200)
	}
	if b.BarringFactor() != 0 {
		t.Errorf("BarringFactor = %v, want 0", b.BarringFactor())
	}
	// A fully open beacon lifts the gate immediately once the wait passed.
	r.k.Run(500)
	b.SetBarring(1, 100)
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("p=1 must never bar")
	}
	if st := b.Stats(); st.Barred != 2 {
		t.Errorf("Barred = %d, want 2", st.Barred)
	}
}
