package frame

// Pool recycles Frame objects within one simulation. Like the kernel's event
// arena it is single-threaded by design: a run owns its kernel and its pool
// until it ends (a later run may then take both over), so no locking is
// needed, and recycling stays deterministic.
//
// All methods are nil-receiver safe: a nil *Pool degrades to plain heap
// allocation with no recycling, so pooling is strictly opt-in for callers
// that can prove their frames' lifecycles end.
type Pool struct {
	free []*Frame
	// out, when non-nil, is the opt-in release checker: the set of frames
	// this pool has handed out and not yet taken back (SetChecks).
	out map[*Frame]bool
}

// SetChecks toggles the opt-in release checker: with checks on, the pool
// tracks the frames it hands out, and Put panics when handed a frame that is
// not out — one it never handed out, or one already returned. Either bug
// otherwise surfaces much later, as a pool that grows on every run or as two
// live users of one recycled frame. Turn checks on before the first Get of a
// run: a frame handed out before that counts as foreign. Tests and fuzz
// harnesses enable it; it costs one map operation per Get and Put. No-op on
// a nil pool.
func (p *Pool) SetChecks(on bool) {
	if p == nil {
		return
	}
	p.out = nil
	if on {
		p.out = make(map[*Frame]bool)
	}
}

// Get returns a zeroed frame, reusing a recycled one when available.
func (p *Pool) Get() *Frame {
	if p == nil {
		return &Frame{}
	}
	var f *Frame
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
		*f = Frame{}
	} else {
		f = &Frame{}
	}
	if p.out != nil {
		p.out[f] = true
	}
	return f
}

// Put returns f to the pool. The caller asserts that f came from this
// pool's Get and that no reference to it survives the call: the frame will
// be zeroed and handed out again by a later Get. Without checks a frame
// from elsewhere is absorbed (the pool simply grows). Put(nil) and calls on
// a nil pool are no-ops.
func (p *Pool) Put(f *Frame) {
	if p == nil || f == nil {
		return
	}
	if p.out != nil {
		if !p.out[f] {
			panic("frame: release of a frame the pool has not handed out (foreign or already released)")
		}
		delete(p.out, f)
	}
	p.free = append(p.free, f)
}

// Size reports the number of idle frames held by the pool.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}
