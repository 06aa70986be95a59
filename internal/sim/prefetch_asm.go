//go:build amd64 || arm64

package sim

import "unsafe"

// prefetchLines hints the CPU to load the n 64-byte cache lines starting at
// p into L1 (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). Both
// instructions are non-faulting, so p may be any address.
//
//go:noescape
func prefetchLines(p unsafe.Pointer, n uintptr)
