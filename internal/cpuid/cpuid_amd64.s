//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	BTL  $27, CX // OSXSAVE: XGETBV is usable
	JCC  no
	MOVL $0, CX
	XGETBV
	ANDL $0xe6, AX // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
