#include "textflag.h"

// func prefetchLines(p unsafe.Pointer, n uintptr)
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ	p+0(FP), AX
	MOVQ	n+8(FP), CX
	TESTQ	CX, CX
	JZ	done
loop:
	PREFETCHT0	(AX)
	ADDQ	$64, AX
	DECQ	CX
	JNZ	loop
done:
	RET
