package frame

// DefaultQueueCap is the paper's transmit queue size of 8 packets (§4.2,
// Fig. 4: "ρ = 0.3 is used for the maximum queue level of 8 packets").
const DefaultQueueCap = 8

// Queue is a bounded FIFO transmit queue. It keeps no counters: the MAC
// layer's Stats count accepted and rejected frames. The zero value is not
// usable; construct with NewQueue. Queue is not safe for concurrent use
// (the simulation is sequential).
type Queue struct {
	items []*Frame
	cap   int
}

// NewQueue returns an empty queue holding at most capacity frames.
// capacity <= 0 selects DefaultQueueCap.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	return &Queue{items: make([]*Frame, 0, capacity), cap: capacity}
}

// NewQueueOn is NewQueue using buf as the item storage (a slab slice from a
// run arena). buf must hold at least capacity elements and must not be
// shared with another queue.
func NewQueueOn(capacity int, buf []*Frame) *Queue {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	if len(buf) < capacity {
		return NewQueue(capacity)
	}
	return &Queue{items: buf[:0], cap: capacity}
}

// Len reports the current occupancy.
func (q *Queue) Len() int { return len(q.items) }

// Empty reports whether no frame is queued.
func (q *Queue) Empty() bool { return len(q.items) == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.items) >= q.cap }

// Push appends f if space remains and reports whether it was accepted.
func (q *Queue) Push(f *Frame) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, f)
	return true
}

// Head returns the frame at the front without removing it, or nil when
// empty.
func (q *Queue) Head() *Frame {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// Pop removes and returns the head frame, or nil when empty.
func (q *Queue) Pop() *Frame {
	if len(q.items) == 0 {
		return nil
	}
	f := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return f
}

// At returns the i-th frame from the head without removing it. The caller
// must keep i inside [0, Len()).
func (q *Queue) At(i int) *Frame { return q.items[i] }

// RemoveAt removes and returns the i-th frame from the head, preserving the
// order of the rest. Drop policies use it to evict queued frames; they must
// never remove index 0, the in-service head an engine may hold a pointer to
// mid-transaction. The caller must keep i inside [0, Len()).
func (q *Queue) RemoveAt(i int) *Frame {
	f := q.items[i]
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return f
}

// Clear removes all queued frames (used between experiment phases).
func (q *Queue) Clear() {
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
}
