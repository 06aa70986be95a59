#include "textflag.h"

// func prefetchLines(p unsafe.Pointer, n uintptr)
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVD	p+0(FP), R0
	MOVD	n+8(FP), R1
	CBZ	R1, done
loop:
	PRFM	(R0), PLDL1KEEP
	ADD	$64, R0
	SUB	$1, R1
	CBNZ	R1, loop
done:
	RET
