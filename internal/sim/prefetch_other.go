//go:build !amd64 && !arm64

package sim

import "unsafe"

// prefetchLines is a no-op on architectures without a prefetch stub: the
// hint only hides latency, so skipping it changes nothing but speed.
func prefetchLines(p unsafe.Pointer, n uintptr) {}
