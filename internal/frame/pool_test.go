package frame

import "testing"

func TestPoolRecycles(t *testing.T) {
	p := &Pool{}
	f := p.Get()
	f.Kind = Data
	f.Seq = 42
	f.Retries = 3
	p.Put(f)
	if p.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", p.Size())
	}
	g := p.Get()
	if g != f {
		t.Fatal("Get did not reuse the recycled frame")
	}
	if g.Kind != 0 || g.Seq != 0 || g.Retries != 0 {
		t.Errorf("recycled frame not zeroed: %+v", g)
	}
	if p.Size() != 0 {
		t.Errorf("Size() = %d after Get, want 0", p.Size())
	}
}

func TestPoolNilSafety(t *testing.T) {
	var p *Pool
	f := p.Get()
	if f == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Put(f) // no-op, must not panic
	if p.Size() != 0 {
		t.Error("nil pool reports nonzero size")
	}
	pp := &Pool{}
	pp.Put(nil) // no-op
	if pp.Size() != 0 {
		t.Error("Put(nil) grew the pool")
	}
}

func TestPoolDoubleReleaseDetector(t *testing.T) {
	p := &Pool{}
	var pNil *Pool
	pNil.SetChecks(true) // no-op, must not panic

	// Without checks a double Put is silently absorbed (the historical
	// behaviour); with checks it must panic immediately.
	f := p.Get()
	p.Put(f)
	p.Put(f)
	p.free = p.free[:0]

	p.SetChecks(true)
	g := p.Get()
	p.Put(g)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release not detected")
			}
		}()
		p.Put(g)
	}()

	// A Get/Put cycle is still legal with checks on, and disabling checks
	// drops the tracking.
	h := p.Get()
	p.Put(h)
	p.SetChecks(false)
	p.Put(p.Get()) // must not panic
}

// TestPoolChecksRejectForeignFrame pins the other half of the release
// checker: with checks on, Put panics on a frame the pool never handed out —
// a heap-built frame, one from another pool, or one handed out before the
// checks were turned on — and leaves the pool as it was.
func TestPoolChecksRejectForeignFrame(t *testing.T) {
	early := &Pool{}
	before := early.Get()
	early.SetChecks(true)
	other := &Pool{}
	for name, tc := range map[string]struct {
		p *Pool
		f *Frame
	}{
		"heap-built":       {&Pool{}, &Frame{Kind: Data}},
		"other pool":       {&Pool{}, other.Get()},
		"before SetChecks": {early, before},
	} {
		tc.p.SetChecks(true)
		if tc.p != early {
			tc.p.Put(tc.p.Get()) // its own frames still cycle
		}
		size := tc.p.Size()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Put of a foreign frame did not panic", name)
				}
			}()
			tc.p.Put(tc.f)
		}()
		if tc.p.Size() != size {
			t.Errorf("%s: the rejected frame joined the pool", name)
		}
	}
	// Without checks a foreign frame is absorbed.
	p := &Pool{}
	p.Put(&Frame{})
	if p.Size() != 1 {
		t.Errorf("unchecked pool holds %d frames after a foreign Put, want 1", p.Size())
	}
}

func TestPoolSteadyStateDoesNotAllocate(t *testing.T) {
	p := &Pool{}
	p.Put(p.Get()) // warm one slot
	allocs := testing.AllocsPerRun(1000, func() {
		f := p.Get()
		f.MPDUBytes = 80
		p.Put(f)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f objects per op, want 0", allocs)
	}
}
