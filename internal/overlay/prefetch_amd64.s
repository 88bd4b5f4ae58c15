#include "textflag.h"

// func prefetchRow(p *uint64)
TEXT ·prefetchRow(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	PREFETCHT0 128(AX)
	PREFETCHT0 192(AX)
	RET
