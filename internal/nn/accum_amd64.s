//go:build amd64 && !noasm

// The accumulate kernel: o[j] += Σ_t v[t]·w[off[t]+j], t ascending.
//
// A block of o's columns is loaded into YMM accumulators once, every
// term is multiplied in and added — one rounded VMULPD, one rounded
// VADDPD, never FMA, the same two operations per element and term as
// accumGeneric and as the axpy nests this replaced — and the block is
// stored once. Operand order matches axpyAsm (w is the multiply's first
// source, the product the add's), so even NaN payloads come out as they
// did. Columns go in blocks of 32 (eight accumulators: sixteen
// independent multiply/add per term keep both FP ports busy and hide the
// add latency), then one block each of 16, 8, 4, 2 and 1 as n's bits
// say. The term list is re-walked per block; it and the w panel it
// points into are L1-resident by accumRows' chunking. AVX only — the
// caller falls back to accumGeneric without it.

#include "textflag.h"

// TERM loads the next term: Y8 = broadcast v, AX = element offset.
#define TERM \
	VBROADCASTSD (R10), Y8; \
	MOVQ         8(R10), AX

// MAC4 does acc += v·w for four columns at byte displacement d.
#define MAC4(d, tmp, acc) \
	VMOVUPD d(SI)(AX*8), tmp; \
	VMULPD  Y8, tmp, tmp;     \
	VADDPD  acc, tmp, acc

// NEXT advances the term cursor and loops to top while terms remain.
#define NEXT(top) \
	ADDQ $16, R10; \
	CMPQ R10, R8;  \
	JNE  top

// func accumAsm(o *float64, n int, w *float64, ts *term, nt int)
//
// Requires n > 0 and nt > 0. DI = o and SI = w advance together over the
// column blocks; DX..R8 is the term list, R10 the cursor into it.
TEXT ·accumAsm(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ ts+24(FP), DX
	MOVQ nt+32(FP), R8
	SHLQ $4, R8
	ADDQ DX, R8

	MOVQ CX, BX
	SHRQ $5, BX
	JZ   c16
b32:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    DX, R10
t32:
	TERM
	MAC4(0, Y9, Y0)
	MAC4(32, Y10, Y1)
	MAC4(64, Y11, Y2)
	MAC4(96, Y12, Y3)
	MAC4(128, Y13, Y4)
	MAC4(160, Y14, Y5)
	MAC4(192, Y15, Y6)
	MAC4(224, Y9, Y7)
	NEXT(t32)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	DECQ    BX
	JNZ     b32

c16:
	TESTQ $16, CX
	JZ    c8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    DX, R10
t16:
	TERM
	MAC4(0, Y9, Y0)
	MAC4(32, Y10, Y1)
	MAC4(64, Y11, Y2)
	MAC4(96, Y12, Y3)
	NEXT(t16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI

c8:
	TESTQ $8, CX
	JZ    c4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    DX, R10
t8:
	TERM
	MAC4(0, Y9, Y0)
	MAC4(32, Y10, Y1)
	NEXT(t8)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI

c4:
	TESTQ $4, CX
	JZ    c2
	VMOVUPD (DI), Y0
	MOVQ    DX, R10
t4:
	TERM
	MAC4(0, Y9, Y0)
	NEXT(t4)
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI

c2:
	TESTQ $2, CX
	JZ    c1
	VMOVUPD (DI), X0
	MOVQ    DX, R10
t2:
	TERM
	VMOVUPD (SI)(AX*8), X9
	VMULPD  X8, X9, X9
	VADDPD  X0, X9, X0
	NEXT(t2)
	VMOVUPD X0, (DI)
	ADDQ    $16, DI
	ADDQ    $16, SI

c1:
	TESTQ $1, CX
	JZ    done
	VMOVSD (DI), X0
	MOVQ   DX, R10
t1:
	TERM
	VMOVSD (SI)(AX*8), X9
	VMULSD X8, X9, X9
	VADDSD X0, X9, X0
	NEXT(t1)
	VMOVSD X0, (DI)
done:
	VZEROUPPER
	RET
