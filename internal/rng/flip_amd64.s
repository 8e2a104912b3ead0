//go:build amd64 && !purego

#include "textflag.h"

// DRAW advances the eight xoshiro256** states in Z0–Z3 (state words 0–3,
// one lane per quadword) by one step and sets K1 to the live lanes whose
// draw is true: (rotl(s1·5, 7)·9) >> 11 < t, with t broadcast in Z4 and
// the live mask in K2.  ×5 and ×9 are shift-and-add.
#define DRAW \
	VPSLLQ  $2, Z1, Z5      \
	VPADDQ  Z1, Z5, Z5      \
	VPROLQ  $7, Z5, Z5      \
	VPSLLQ  $3, Z5, Z6      \
	VPADDQ  Z5, Z6, Z5      \
	VPSRLQ  $11, Z5, Z5     \
	VPCMPUQ $1, Z4, Z5, K2, K1 \
	VPSLLQ  $17, Z1, Z6     \
	VPXORQ  Z0, Z2, Z2      \
	VPXORQ  Z1, Z3, Z3      \
	VPXORQ  Z2, Z1, Z1      \
	VPXORQ  Z3, Z0, Z0      \
	VPXORQ  Z6, Z2, Z2      \
	VPROLQ  $45, Z3, Z3

// func flip8(st *laneStates, t, live, base uint64, a, b []uint64)
TEXT ·flip8(SB), NOSPLIT, $0-80
	MOVQ         st+0(FP), DI
	VMOVDQU64    (DI), Z0
	VMOVDQU64    64(DI), Z1
	VMOVDQU64    128(DI), Z2
	VMOVDQU64    192(DI), Z3
	VPBROADCASTQ t+8(FP), Z4
	MOVQ         live+16(FP), AX
	KMOVW        AX, K2
	MOVQ         base+24(FP), CX
	MOVQ         a_base+32(FP), SI
	MOVQ         a_len+40(FP), DX
	MOVQ         b_base+56(FP), R8
	XORQ         R9, R9
	TESTQ        DX, DX
	JZ           done

loop:
	DRAW
	KMOVW K1, AX
	SHLQ  CX, AX
	ORQ   AX, (SI)(R9*8)
	DRAW
	KMOVW K1, AX
	SHLQ  CX, AX
	ORQ   AX, (R8)(R9*8)
	INCQ  R9
	CMPQ  R9, DX
	JB    loop

done:
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VZEROUPPER
	RET
