package mac

import "qma/internal/frame"

// scratchChunk is the number of elements per slab block once a slab has
// grown. One FactoryHall node needs states×actions table entries plus a
// policy row, so a block this size covers on the order of a hundred nodes
// per type before the next block is carved.
const scratchChunk = 16384

// A slab's first block holds firstScratchChunk elements and each further
// one doubles, reaching scratchChunk after scratchDoublings blocks. A
// few-node run (the paper's hidden-node pair) thus carves a few KB per type
// instead of a full block.
const (
	scratchDoublings  = 4
	firstScratchChunk = scratchChunk >> scratchDoublings
)

// Scratch is a bump arena for the per-node hot state of one simulation run:
// Q-table backing, byte-wide policy rows and transmit-queue buffers.
// Handing every node's state out of a few large blocks keeps the data of
// neighbouring nodes contiguous in memory — the learner's inner loops
// (MaxQ, Update) walk these rows millions of times per run and are
// cache-miss bound when each node's rows live in a separate heap object.
//
// Like frame.Pool it is single-threaded by design and nil-receiver safe: a
// nil *Scratch degrades to plain heap allocation, so slab placement is
// strictly opt-in. Reset rewinds the arena for the next replication without
// releasing the blocks, which is what lets a worker run thousands of
// replications with a constant memory footprint.
type Scratch struct {
	f64    slab[float64]
	i16    slab[int16]
	i8     slab[int8]
	u8     slab[uint8]
	frames slab[*frame.Frame]
}

// Float64s returns a zeroed slab slice of n float64s.
func (s *Scratch) Float64s(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return s.f64.alloc(n)
}

// Int16s returns a zeroed slab slice of n int16s.
func (s *Scratch) Int16s(n int) []int16 {
	if s == nil {
		return make([]int16, n)
	}
	return s.i16.alloc(n)
}

// Int8s returns a zeroed slab slice of n int8s.
func (s *Scratch) Int8s(n int) []int8 {
	if s == nil {
		return make([]int8, n)
	}
	return s.i8.alloc(n)
}

// Uint8s returns a zeroed slab slice of n uint8s (policy rows).
func (s *Scratch) Uint8s(n int) []uint8 {
	if s == nil {
		return make([]uint8, n)
	}
	return s.u8.alloc(n)
}

// Frames returns a zeroed slab slice of n frame pointers (transmit-queue
// backing).
func (s *Scratch) Frames(n int) []*frame.Frame {
	if s == nil {
		return make([]*frame.Frame, n)
	}
	return s.frames.alloc(n)
}

// Reset rewinds the arena so the next run re-carves the same blocks. Slices
// handed out before the Reset alias the new run's state and must not be
// touched again; callers guarantee this by dropping every engine of the
// previous run before resetting. No-op on a nil receiver.
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	s.f64.reset()
	s.i16.reset()
	s.i8.reset()
	s.u8.reset()
	s.frames.reset()
}

// slab hands out sub-slices of large blocks, bump-pointer style. Blocks
// survive reset, so a rewound slab re-serves the same memory in the same
// order.
type slab[T any] struct {
	blocks [][]T
	cur    int // block being filled
	off    int // next free element in blocks[cur]
}

func (s *slab[T]) alloc(n int) []T {
	for {
		if s.cur < len(s.blocks) {
			if b := s.blocks[s.cur]; s.off+n <= len(b) {
				out := b[s.off : s.off+n : s.off+n]
				s.off += n
				clear(out)
				return out
			}
			// The current block's tail is too small; waste it and move on.
			// The allocation pattern repeats identically after a reset, so
			// the waste is bounded and the reuse exact.
			s.cur++
			s.off = 0
			continue
		}
		size := scratchChunk
		if k := len(s.blocks); k < scratchDoublings {
			size = firstScratchChunk << k
		}
		s.blocks = append(s.blocks, make([]T, max(size, n)))
	}
}

func (s *slab[T]) reset() { s.cur, s.off = 0, 0 }
