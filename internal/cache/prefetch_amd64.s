#include "textflag.h"

// func hostPrefetch(addr uintptr)
TEXT ·hostPrefetch(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	PREFETCHT0 (AX)
	RET
