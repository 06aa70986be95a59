package mac

import (
	"testing"

	"qma/internal/frame"
)

// TestScratchNilReceiver pins the opt-out contract: a nil *Scratch degrades
// to plain heap allocation for every element type.
func TestScratchNilReceiver(t *testing.T) {
	var s *Scratch
	if got := s.Float64s(3); len(got) != 3 {
		t.Errorf("nil Float64s len = %d", len(got))
	}
	if got := s.Int16s(4); len(got) != 4 {
		t.Errorf("nil Int16s len = %d", len(got))
	}
	if got := s.Int8s(5); len(got) != 5 {
		t.Errorf("nil Int8s len = %d", len(got))
	}
	if got := s.Uint8s(6); len(got) != 6 {
		t.Errorf("nil Uint8s len = %d", len(got))
	}
	if got := s.Frames(8); len(got) != 8 {
		t.Errorf("nil Frames len = %d", len(got))
	}
	s.Reset() // must not panic
}

// TestScratchZeroedAndCapped checks every carve is zeroed, has exact length,
// and is capacity-capped so an append cannot bleed into the next carve.
func TestScratchZeroedAndCapped(t *testing.T) {
	s := &Scratch{}
	a := s.Float64s(4)
	b := s.Float64s(4)
	if len(a) != 4 || cap(a) != 4 {
		t.Fatalf("len/cap = %d/%d, want 4/4", len(a), cap(a))
	}
	for i := range a {
		a[i] = 1.5
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %v, want zeroed carve", i, v)
		}
	}
	a = append(a, 9)
	if b[0] != 0 {
		t.Error("append to a full carve overwrote the neighbouring carve")
	}
	fr := s.Frames(2)
	fr[0] = &frame.Frame{}
	if got := s.Frames(2); got[0] != nil {
		t.Error("frame carve not zeroed")
	}
}

// TestScratchResetReservesSameMemory pins the reuse contract: after Reset an
// identical allocation sequence re-serves the same backing memory, zeroed.
func TestScratchResetReservesSameMemory(t *testing.T) {
	s := &Scratch{}
	a := s.Float64s(10)
	for i := range a {
		a[i] = 7
	}
	s.Reset()
	b := s.Float64s(10)
	if &a[0] != &b[0] {
		t.Error("reset slab served different memory for an identical sequence")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %v, want zeroed after reset", i, v)
		}
	}
}

// TestScratchBlockBoundaries covers carves that straddle or exceed the block
// size: a tail too small for the next carve is wasted, an oversized request
// gets its own block, and the pattern repeats exactly after a reset.
func TestScratchBlockBoundaries(t *testing.T) {
	s := &Scratch{}
	first := s.Uint8s(firstScratchChunk - 10) // leaves a 10-element tail
	tail := s.Uint8s(20)                      // does not fit: new block
	if len(first) != firstScratchChunk-10 || len(tail) != 20 {
		t.Fatal("carve lengths wrong")
	}
	big := s.Uint8s(3 * scratchChunk) // oversized: dedicated block
	if len(big) != 3*scratchChunk {
		t.Fatalf("oversized carve len = %d", len(big))
	}
	big[0] = 42
	s.Reset()
	if got := s.Uint8s(firstScratchChunk - 10); &got[0] != &first[0] {
		t.Error("first block not re-served after reset")
	}
	if got := s.Uint8s(20); &got[0] != &tail[0] {
		t.Error("second block not re-served after reset")
	}
	got := s.Uint8s(3 * scratchChunk)
	if &got[0] != &big[0] {
		t.Error("oversized block not re-served after reset")
	}
	if got[0] != 0 {
		t.Error("re-served block not zeroed")
	}
}

// TestScratchTypesIndependent checks the per-type slabs do not interfere:
// carves of different element types never alias.
func TestScratchTypesIndependent(t *testing.T) {
	s := &Scratch{}
	f := s.Float64s(8)
	i16 := s.Int16s(8)
	i8 := s.Int8s(8)
	u := s.Uint8s(8)
	for i := 0; i < 8; i++ {
		f[i] = 1
		i16[i] = 2
		i8[i] = 3
		u[i] = 4
	}
	for i := 0; i < 8; i++ {
		if f[i] != 1 || i16[i] != 2 || i8[i] != 3 || u[i] != 4 {
			t.Fatalf("cross-type interference at %d: %v %v %v %v", i, f[i], i16[i], i8[i], u[i])
		}
	}
}
