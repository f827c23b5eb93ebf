#include "textflag.h"

// AVX2 twister fills: the Table I twist+temper datapath of fillSeg and
// fill521, eight 32-bit lanes per vector step. Integer instructions
// only, so every word is bit-identical to the Go lanes in mt.go.
//
// Register roles in both kernels:
//   Y8  upper mask of the twist (0x80000000 or 0xFF800000)
//   Y9  twist matrix row A
//   Y10 tempering mask B
//   Y11 tempering mask C
// Y0–Y7 and Y12–Y13 hold state vectors and temporaries.

// Constants, one 16-byte row per parameter set: upper mask, A, B, C.
DATA consts19937<>+0(SB)/4, $0x80000000
DATA consts19937<>+4(SB)/4, $0x9908B0DF
DATA consts19937<>+8(SB)/4, $0x9D2C5680
DATA consts19937<>+12(SB)/4, $0xEFC60000
GLOBL consts19937<>(SB), RODATA|NOPTR, $16

DATA consts521<>+0(SB)/4, $0xFF800000
DATA consts521<>+4(SB)/4, $0xE4BD75F5
DATA consts521<>+8(SB)/4, $0x655E5280
DATA consts521<>+12(SB)/4, $0xFFD58000
GLOBL consts521<>(SB), RODATA|NOPTR, $16

// rotUp1 is the VPERMD index that moves lane i to lane i+1 (lane 7
// wraps to lane 0, where VPBLENDD overwrites it).
DATA rotUp1<>+0(SB)/4, $7
DATA rotUp1<>+4(SB)/4, $0
DATA rotUp1<>+8(SB)/4, $1
DATA rotUp1<>+12(SB)/4, $2
DATA rotUp1<>+16(SB)/4, $3
DATA rotUp1<>+20(SB)/4, $4
DATA rotUp1<>+24(SB)/4, $5
DATA rotUp1<>+28(SB)/4, $6
GLOBL rotUp1<>(SB), RODATA|NOPTR, $32

// rotDown1 moves lane i to lane i-1 (lane 0 wraps to lane 7, where
// VPBLENDD overwrites it).
DATA rotDown1<>+0(SB)/4, $1
DATA rotDown1<>+4(SB)/4, $2
DATA rotDown1<>+8(SB)/4, $3
DATA rotDown1<>+12(SB)/4, $4
DATA rotDown1<>+16(SB)/4, $5
DATA rotDown1<>+20(SB)/4, $6
DATA rotDown1<>+24(SB)/4, $7
DATA rotDown1<>+28(SB)/4, $0
GLOBL rotDown1<>(SB), RODATA|NOPTR, $32

// LOADCONSTS broadcasts one parameter row into Y8–Y11.
#define LOADCONSTS(tbl) \
	VPBROADCASTD tbl+0(SB), Y8; \
	VPBROADCASTD tbl+4(SB), Y9; \
	VPBROADCASTD tbl+8(SB), Y10; \
	VPBROADCASTD tbl+12(SB), Y11

// TWIST leaves x = tap ^ (y>>1) ^ (A & -(y&1)) in tap, with
// y = (cur & upper) | (nxt & ^upper) formed as nxt ^ ((cur^nxt) & upper).
// The upper mask never holds bit 0, so y&1 is nxt&1: shifting it to bit
// 31 and arithmetic-shifting back gives the all-ones or zero lane mask
// of twist19937's -(y & 1).
#define TWIST(cur, nxt, tap, t1, t2) \
	VPXOR  nxt, cur, t1; \
	VPAND  Y8, t1, t1; \
	VPXOR  nxt, t1, t1; \
	VPSRLD $1, t1, t1; \
	VPSLLD $31, nxt, t2; \
	VPSRAD $31, t2, t2; \
	VPAND  Y9, t2, t2; \
	VPXOR  t1, tap, tap; \
	VPXOR  t2, tap, tap

// TEMPER tempers x in place: x ^= x>>u; x ^= (x<<7)&B; x ^= (x<<15)&C;
// x ^= x>>18.
#define TEMPER(x, u, t) \
	VPSRLD $u, x, t; \
	VPXOR  t, x, x; \
	VPSLLD $7, x, t; \
	VPAND  Y10, t, t; \
	VPXOR  t, x, x; \
	VPSLLD $15, x, t; \
	VPAND  Y11, t, t; \
	VPXOR  t, x, x; \
	VPSRLD $18, x, t; \
	VPXOR  t, x, x

// func fillSegAVX2(o, cur, nxt, tap *uint32, n int)
//
// One MT19937 twist segment, eight words per step; n is a positive
// multiple of 8. The scalar recurrence twists word j from cur[j],
// nxt[j] = cur[j+1] and tap[j], and writes cur[j] before it reads word
// j+1. Eight lanes at once keep that order for every tap:
//   - nxt[j..j+7] overlaps the cur[j+1..j+7] this step writes, so each
//     step loads nxt (and cur and tap) before it stores cur[j..j+7]:
//     every lane reads the old successor, as the scalar loop does.
//   - Segment 1's taps lie 397 words ahead of cur, beyond anything this
//     pass has written, so they are still old words, as required.
//   - Segment 2's taps lie 227 words behind cur, so they were written by
//     an earlier step (or an earlier call) and are already the fresh
//     words the wrapped tap must read.
TEXT ·fillSegAVX2(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ cur+8(FP), SI
	MOVQ nxt+16(FP), DX
	MOVQ tap+24(FP), R8
	MOVQ n+32(FP), CX
	LOADCONSTS(consts19937<>)

loop:
	VMOVDQU (DX), Y1
	VMOVDQU (SI), Y0
	VMOVDQU (R8), Y2
	TWIST(Y0, Y1, Y2, Y3, Y4)
	VMOVDQU Y2, (SI)
	TEMPER(Y2, 11, Y3)
	VMOVDQU Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $8, CX
	JNZ  loop

	VZEROUPPER
	RET

// func fill521AVX2(o, st *uint32)
//
// Words 0–15 of one MT521 block (N=17, M=8) as two vectors. Word k
// twists st[k] with st[k+1] against the tap st[(k+8) mod 17]. All 17
// old words are loaded, as st[0..7], st[8..15] and st[16], before any
// store. The nxt vectors st[1..8] and st[9..16] are built from them in
// registers (rotate down one lane, blend the next word into lane 7)
// rather than loaded at a 4-byte offset, which would straddle the
// previous block's stores and defeat store-to-load forwarding.
//   - Vector A, words 0–7: taps st[8..15] are still old words.
//   - Vector B, words 8–15: cur and nxt are old, and the taps are
//     st[16], which is old, then st[0..6], which vector A has just
//     written. So B's tap vector is A's result rotated up one lane
//     (VPERMD) with the old st[16] blended into lane 0 (VPBLENDD).
// Word 16 reads the new st[0] and st[7]; the caller twists it.
TEXT ·fill521AVX2(SB), NOSPLIT, $0-16
	MOVQ o+0(FP), DI
	MOVQ st+8(FP), SI
	LOADCONSTS(consts521<>)

	VMOVDQU      (SI), Y0   // A cur: st[0..7]
	VMOVDQU      32(SI), Y2 // A tap: st[8..15]
	VMOVDQA      Y2, Y7     // B cur: st[8..15]
	VPBROADCASTD 64(SI), Y6 // old st[16]
	VMOVDQU      rotDown1<>(SB), Y12
	VPERMD       Y0, Y12, Y1
	VPERMD       Y2, Y12, Y5
	VPBLENDD     $0x80, Y5, Y1, Y1 // A nxt: st[1..8]
	VPBLENDD     $0x80, Y6, Y5, Y5 // B nxt: st[9..16]

	TWIST(Y0, Y1, Y2, Y3, Y4)
	VMOVDQU Y2, (SI)

	VMOVDQU  rotUp1<>(SB), Y12
	VPERMD   Y2, Y12, Y13
	VPBLENDD $1, Y6, Y13, Y13 // B tap: old st[16], new st[0..6]

	TEMPER(Y2, 12, Y3)
	VMOVDQU Y2, (DI)

	TWIST(Y7, Y5, Y13, Y3, Y4)
	VMOVDQU Y13, 32(SI)
	TEMPER(Y13, 12, Y3)
	VMOVDQU Y13, 32(DI)

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (a, d uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, a+0(FP)
	MOVL DX, d+4(FP)
	RET
