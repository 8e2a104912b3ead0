//go:build amd64 && !purego

#include "textflag.h"

// onehot<> maps a round's outcome code c (0 CC, 1 CD, 2 DC, 3 DD) to
// 1<<(8c), the increment of that outcome's byte counter.
DATA onehot<>+0(SB)/4, $0x00000001
DATA onehot<>+4(SB)/4, $0x00000100
DATA onehot<>+8(SB)/4, $0x00010000
DATA onehot<>+12(SB)/4, $0x01000000
GLOBL onehot<>(SB), RODATA|NOPTR, $64

// swapcode<> maps the focal player's outcome code to the opponent's: the
// two move bits swap.
DATA swapcode<>+0(SB)/4, $0
DATA swapcode<>+4(SB)/4, $2
DATA swapcode<>+8(SB)/4, $1
DATA swapcode<>+12(SB)/4, $3
GLOBL swapcode<>(SB), RODATA|NOPTR, $64

// STEP plays one round of the sixteen lanes of one group, whose focal and
// opponent states and packed counters are in sa, sb and ctr and whose
// table offsets are at byte offset g of the offA and offB arrays of the
// state block at base.  It gathers the dword of each player's table that
// holds its move bit (index state>>5 plus the table's offset), rotates the
// bit to bit 0 (VPRORVD takes the count mod 32) and masks it: 1 is a
// defection.  The focal outcome code is my<<1|opp (Z4), the opponent's its
// swap (Z5); the code's one-hot is added to the counters, and each state
// becomes (state<<2 | code) & mask.  Z2–Z6 are scratch.
#define STEP(sa, sb, ctr, g, base) \
	VPSRLD     $5, sa, Z2             \
	VPADDD     (512+g)(base), Z2, Z2  \
	VPSRLD     $5, sb, Z3             \
	VPADDD     (768+g)(base), Z3, Z3  \
	KXNORW     K1, K1, K1             \
	VPXORD     Z4, Z4, Z4             \
	VPGATHERDD (SI)(Z2*4), K1, Z4     \
	KXNORW     K2, K2, K2             \
	VPXORD     Z5, Z5, Z5             \
	VPGATHERDD (SI)(Z3*4), K2, Z5     \
	VPRORVD    sa, Z4, Z4             \
	VPRORVD    sb, Z5, Z5             \
	VPANDD     Z30, Z4, Z4            \
	VPANDD     Z30, Z5, Z5            \
	VPADDD     Z4, Z4, Z4             \
	VPORD      Z5, Z4, Z4             \
	VPERMD     Z29, Z4, Z5            \
	VPERMD     Z28, Z4, Z6            \
	VPADDD     Z6, ctr, ctr           \
	VPSLLD     $2, sa, sa             \
	VPTERNLOGD $0xa8, Z31, Z4, sa     \
	VPSLLD     $2, sb, sb             \
	VPTERNLOGD $0xa8, Z31, Z5, sb

// LOAD and STORE move the states and counters of the group at byte offset
// g between the state block at base and registers.
#define LOAD(sa, sb, ctr, g, base) \
	VMOVDQU32 g(base), sa          \
	VMOVDQU32 (256+g)(base), sb    \
	VMOVDQU32 (1024+g)(base), ctr

#define STORE(sa, sb, ctr, g, base) \
	VMOVDQU32 sa, g(base)          \
	VMOVDQU32 sb, (256+g)(base)    \
	VMOVDQU32 ctr, (1024+g)(base)

// func walk16(base *uint64, st *laneState, groups, rounds int, mask uint32, rec *uint16)
//
// Without rec, the loop keeps every group's states and counters in
// registers (Z16–Z27), one loop per group count; the groups' walks are
// independent, so the core overlaps one group's gathers with the next's.  With rec,
// each round runs the groups in turn through the state block and stores
// their new focal states, 64 lanes of 16 bits per round.
TEXT ·walk16(SB), NOSPLIT, $0-48
	MOVQ         base+0(FP), SI
	MOVQ         st+8(FP), DI
	MOVQ         groups+16(FP), CX
	MOVQ         rounds+24(FP), DX
	MOVL         mask+32(FP), AX
	VPBROADCASTD AX, Z31
	MOVQ         rec+40(FP), R10
	MOVL         $1, AX
	VPBROADCASTD AX, Z30
	VMOVDQU32    swapcode<>(SB), Z29
	VMOVDQU32    onehot<>(SB), Z28
	TESTQ        DX, DX
	JZ           done
	TESTQ        R10, R10
	JNZ          recround
	CMPQ         CX, $2
	JB           g1
	JEQ          g2
	CMPQ         CX, $3
	JEQ          g3

	LOAD(Z16, Z17, Z18, 0, DI)
	LOAD(Z19, Z20, Z21, 64, DI)
	LOAD(Z22, Z23, Z24, 128, DI)
	LOAD(Z25, Z26, Z27, 192, DI)

g4loop:
	STEP(Z16, Z17, Z18, 0, DI)
	STEP(Z19, Z20, Z21, 64, DI)
	STEP(Z22, Z23, Z24, 128, DI)
	STEP(Z25, Z26, Z27, 192, DI)
	DECQ DX
	JNZ  g4loop
	STORE(Z16, Z17, Z18, 0, DI)
	STORE(Z19, Z20, Z21, 64, DI)
	STORE(Z22, Z23, Z24, 128, DI)
	STORE(Z25, Z26, Z27, 192, DI)
	JMP  done

g3:
	LOAD(Z16, Z17, Z18, 0, DI)
	LOAD(Z19, Z20, Z21, 64, DI)
	LOAD(Z22, Z23, Z24, 128, DI)

g3loop:
	STEP(Z16, Z17, Z18, 0, DI)
	STEP(Z19, Z20, Z21, 64, DI)
	STEP(Z22, Z23, Z24, 128, DI)
	DECQ DX
	JNZ  g3loop
	STORE(Z16, Z17, Z18, 0, DI)
	STORE(Z19, Z20, Z21, 64, DI)
	STORE(Z22, Z23, Z24, 128, DI)
	JMP  done

g2:
	LOAD(Z16, Z17, Z18, 0, DI)
	LOAD(Z19, Z20, Z21, 64, DI)

g2loop:
	STEP(Z16, Z17, Z18, 0, DI)
	STEP(Z19, Z20, Z21, 64, DI)
	DECQ DX
	JNZ  g2loop
	STORE(Z16, Z17, Z18, 0, DI)
	STORE(Z19, Z20, Z21, 64, DI)
	JMP  done

g1:
	LOAD(Z16, Z17, Z18, 0, DI)

g1loop:
	STEP(Z16, Z17, Z18, 0, DI)
	DECQ DX
	JNZ  g1loop
	STORE(Z16, Z17, Z18, 0, DI)
	JMP  done

recround:
	MOVQ DI, R8
	MOVQ CX, R9
	MOVQ R10, R11

recgroup:
	LOAD(Z16, Z17, Z18, 0, R8)
	STEP(Z16, Z17, Z18, 0, R8)
	STORE(Z16, Z17, Z18, 0, R8)
	VPMOVDW Z16, (R11)
	ADDQ    $32, R11
	ADDQ    $64, R8
	DECQ    R9
	JNZ     recgroup
	ADDQ    $128, R10
	DECQ    DX
	JNZ     recround

done:
	VZEROUPPER
	RET

// func revisits16(rec *uint16, groups, rounds int, first *[BatchLanes]uint32)
//
// For each group the loop runs r from the last recorded round back to 1
// and, for each, mu from r-1 back to 0, setting a lane's code (Z16) to
// r<<8 | mu where its state entering round r (Z1) equals its state
// entering round mu (Z2).  The code a lane keeps is then that of its first
// revisit: before it the lane's states are all distinct, so exactly one
// earlier round matches.  The state entering round r >= 1 is row r-1 of
// rec, 128 bytes a row; every walk enters round 0 in state 0.
TEXT ·revisits16(SB), NOSPLIT, $0-32
	MOVQ rec+0(FP), SI
	MOVQ groups+8(FP), CX
	MOVQ rounds+16(FP), DX
	MOVQ first+24(FP), DI

group:
	VPXORD Z16, Z16, Z16
	MOVQ   DX, R8 // r
	LEAQ   -1(DX), R10
	SHLQ   $7, R10 // row of round r's state

rloop:
	VPMOVZXWD (SI)(R10*1), Z1
	MOVQ      R8, R9 // mu
	MOVQ      R10, R11

muloop:
	DECQ         R9
	JZ           zero
	SUBQ         $128, R11
	VPMOVZXWD    (SI)(R11*1), Z2
	VPCMPEQD     Z2, Z1, K1
	MOVQ         R8, AX
	SHLQ         $8, AX
	ORQ          R9, AX
	VPBROADCASTD AX, K1, Z16
	JMP          muloop

zero:
	VPTESTNMD    Z1, Z1, K1
	MOVQ         R8, AX
	SHLQ         $8, AX
	VPBROADCASTD AX, K1, Z16
	SUBQ         $128, R10
	DECQ         R8
	JNZ          rloop

	VMOVDQU32 Z16, (DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       group
	VZEROUPPER
	RET
