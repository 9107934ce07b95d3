//go:build amd64 && !noasm

// The fused accumulate kernel: for each of rows output rows r,
//
//	o[r·os + j] = b[r·bs + j] + Σ_k a[r·ar + k·ak] · w[k·ws + j]    j < n, k < cnt ascending
//
// over one k-chunk, skipping the terms whose a is ±0 (NaN is kept). The
// start b is o itself (bs = os: accumulate), a bias row (bs = 0), or
// nil for +0 — so a fresh output needs no copy or clear pass first.
//
// Per row, the chunk's non-zero terms are first compacted into a term
// list on this function's stack: the value in vs, the element offset of
// its row of w in offs. A contiguous row (ak = 1) goes four values at a
// time: VCMPPD NEQ_UQ against zero (true for non-zero and for NaN),
// VMOVMSKPD to a 4-bit mask, and that mask indexes ·compactTab for the
// VPERMD that moves the kept lanes to the front and for how many there
// are; the last cnt%4 values come in through a lane mask, the missing
// lanes reading as zeros and so dropping out. A strided row (gw reads x
// down a column) goes one value at a time through a branch-free scalar
// loop: every value is written at the list's end, and the end advances
// past it only if its bits shifted left by one — the sign dropped — are
// non-zero (NEGQ sets the carry exactly then).
//
// The term list is then accumulated into the row: a block of the row's
// start (b's columns, or zeroed registers) is loaded into YMM
// accumulators once, every term is multiplied in and added — one
// rounded VMULPD, one rounded VADDPD, never FMA, the same two
// operations per element and term as accumGeneric — and the block is
// stored once. Operand order matches axpyAsm (w is the
// multiply's first source, the product the add's), so even NaN payloads
// come out as they always did. Columns go in blocks of 32 (eight
// accumulators: sixteen independent multiply/add per term keep the FP
// ports busy and hide the add latency), then the remaining n%32 columns
// — up to seven full vectors and a lane-masked last one for n%4 — in one
// more pass over the term list, through the term loop written for that
// many vectors, so the narrow layers' tails cost one pass, not one per
// power-of-two block.
//
// Every vector instruction is VEX-encoded and the kernel ends with
// VZEROUPPER: one legacy-SSE instruction among them costs an SSE/AVX
// state transition per call. AVX2 only — the caller falls back to
// accumChunkGeneric without it.

#include "textflag.h"

// The stack frame: the term list's values (vs) and row offsets (offs),
// then the current row's start pointer. A compaction step stores four
// lanes at the list's end, so a chunk of at most maxTerms values never
// writes past either array.
#define VS 0
#define OFFS 512
#define BROW 1024

// Offsets into ·compactTab: the permutations (32 bytes per mask) at 0.
#define TAB_COUNT 512
#define TAB_LANE 528

// COMPACT4 appends the non-zero lanes of Y1 to the term list, R8 terms
// long, with their offsets from Y0, and steps Y0 to the next four rows.
// Y13 is zero, R12 = &compactTab.
#define COMPACT4 \
	VCMPPD    $4, Y13, Y1, Y2;         \
	VMOVMSKPD Y2, AX;                  \
	MOVBQZX   TAB_COUNT(R12)(AX*1), DX; \
	SHLQ      $5, AX;                  \
	VMOVDQU   (R12)(AX*1), Y3;         \
	VPERMD    Y1, Y3, Y4;              \
	VPERMD    Y0, Y3, Y5;              \
	VMOVUPD   Y4, VS(SP)(R8*8);        \
	VMOVDQU   Y5, OFFS(SP)(R8*8);      \
	ADDQ      DX, R8;                  \
	VPADDQ    Y12, Y0, Y0

// TERM loads the term at R10: Y8 = broadcast v, AX = element offset.
#define TERM \
	VBROADCASTSD VS(R10), Y8; \
	MOVQ         OFFS(R10), AX

// MAC4 does acc += v·w for the four columns of w at addr.
#define MAC4(addr, acc) \
	VMOVUPD addr, Y9;   \
	VMULPD  Y8, Y9, Y9; \
	VADDPD  acc, Y9, acc

// TAILq does the multiply-adds of a term into the tail's q full vectors.
#define TAIL1 MAC4(0(SI)(AX*8), Y0)
#define TAIL2 TAIL1; MAC4(32(SI)(AX*8), Y1)
#define TAIL3 TAIL2; MAC4(64(SI)(AX*8), Y2)
#define TAIL4 TAIL3; MAC4(96(SI)(AX*8), Y3)
#define TAIL5 TAIL4; MAC4(128(SI)(AX*8), Y4)
#define TAIL6 TAIL5; MAC4(160(SI)(AX*8), Y5)
#define TAIL7 TAIL6; MAC4(192(SI)(AX*8), Y6)

// TAILM does the multiply-add of a term into the masked last vector, Y7,
// at byte displacement d.
#define TAILM(d) \
	VMASKMOVPD d(SI)(AX*8), Y14, Y9; \
	VMULPD     Y8, Y9, Y9;           \
	VADDPD     Y7, Y9, Y7

// NEXT advances the term cursor and loops to top while terms remain.
#define NEXT(top) \
	ADDQ $8, R10;  \
	CMPQ R10, R8;  \
	JNE  top

// ZERO8 zeroes the eight accumulators: the start of a block or tail
// when there is no start row (R14 nil).
#define ZERO8 \
	VXORPD  Y0, Y0, Y0;   \
	VXORPD  Y1, Y1, Y1;   \
	VXORPD  Y2, Y2, Y2;   \
	VXORPD  Y3, Y3, Y3;   \
	VXORPD  Y4, Y4, Y4;   \
	VXORPD  Y5, Y5, Y5;   \
	VXORPD  Y6, Y6, Y6;   \
	VXORPD  Y7, Y7, Y7

// func accumChunkAsm(o *float64, os, n int, b *float64, bs int, a *float64, ar, ak, cnt int, w *float64, ws, rows int)
//
// Requires n > 0, 0 < cnt ≤ maxTerms, rows > 0. Across rows: R9 = o's
// row, R11 = a's row, R13 = rows left, R12 = &compactTab, BROW(SP) = b's
// row (nil throughout for a +0 start); Y11 = the four lanes' row
// offsets (0, ws, 2ws, 3ws) and Y12 their step 4ws, Y13 = 0, Y14 = the
// lane mask of the last n%4 columns, Y15 = that of the last cnt%4
// values. Within a row R14 walks the start beside DI on o.
TEXT ·accumChunkAsm(SB), 0, $1032-96
	LEAQ         ·compactTab(SB), R12
	VMOVDQU      TAB_LANE(R12), Y9
	MOVQ         ws+80(FP), AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	VPSLLQ       $2, Y11, Y12
	VPMULUDQ     Y9, Y11, Y11
	VPXOR        Y13, Y13, Y13
	MOVQ         n+16(FP), AX
	ANDQ         $3, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	VPCMPGTQ     Y9, Y14, Y14
	MOVQ         cnt+64(FP), AX
	ANDQ         $3, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VPCMPGTQ     Y9, Y15, Y15

	MOVQ o+0(FP), R9
	MOVQ b+24(FP), AX
	MOVQ AX, BROW(SP)
	MOVQ a+40(FP), R11
	MOVQ rows+88(FP), R13

row:
	// Compact the row's chunk into the term list.
	MOVQ    R11, R10
	XORQ    R8, R8
	VMOVDQA Y11, Y0
	MOVQ    cnt+64(FP), BX
	SHRQ    $2, BX
	CMPQ    ak+56(FP), $1
	JNE     strided
	TESTQ   BX, BX
	JZ      crest
cgroup:
	VMOVUPD (R10), Y1
	ADDQ    $32, R10
	COMPACT4
	DECQ    BX
	JNZ     cgroup
crest:
	TESTQ      $3, cnt+64(FP)
	JZ         listed
	VMASKMOVPD (R10), Y15, Y1
	COMPACT4
	JMP        listed

strided:
	MOVQ ak+56(FP), CX
	SHLQ $3, CX
	MOVQ ws+80(FP), SI
	MOVQ cnt+64(FP), BX
	XORQ DX, DX
sloop:
	MOVQ (R10), AX
	MOVQ AX, VS(SP)(R8*8)
	MOVQ DX, OFFS(SP)(R8*8)
	ADDQ SI, DX
	ADDQ AX, AX
	NEGQ AX
	ADCQ $0, R8
	ADDQ CX, R10
	DECQ BX
	JNZ  sloop

listed:
	// Accumulate the R8 terms: R10 walks the list, R8 becomes its end.
	// A row without terms is left alone when it accumulates, and set to
	// its start otherwise.
	MOVQ  BROW(SP), R14
	TESTQ R8, R8
	JNZ   terms
	CMPQ  R14, R9
	JEQ   next
	JMP   fill
terms:
	LEAQ  (SP)(R8*8), R8
	MOVQ  R9, DI
	MOVQ  w+72(FP), SI
	MOVQ  n+16(FP), CX
	MOVQ  CX, BX
	SHRQ  $5, BX
	JZ    tail
b32:
	TESTQ   R14, R14
	JNZ     b32load
	ZERO8
	JMP     b32go
b32load:
	VMOVUPD (R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD 64(R14), Y2
	VMOVUPD 96(R14), Y3
	VMOVUPD 128(R14), Y4
	VMOVUPD 160(R14), Y5
	VMOVUPD 192(R14), Y6
	VMOVUPD 224(R14), Y7
	ADDQ    $256, R14
b32go:
	MOVQ    SP, R10
t32:
	TERM
	MAC4(0(SI)(AX*8), Y0)
	MAC4(32(SI)(AX*8), Y1)
	MAC4(64(SI)(AX*8), Y2)
	MAC4(96(SI)(AX*8), Y3)
	MAC4(128(SI)(AX*8), Y4)
	MAC4(160(SI)(AX*8), Y5)
	MAC4(192(SI)(AX*8), Y6)
	MAC4(224(SI)(AX*8), Y7)
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

tail:
	// The n%32 columns left, in one pass over the term list: q = n%32/4
	// full vectors in Y0..Y(q-1) and, when n%4 > 0, the lanes of Y7 for
	// the last 1–3 columns. Each (q, masked) pair has its own term loop,
	// so a term costs only its multiply-adds.
	ANDQ $31, CX
	JZ   next
	MOVQ CX, DX
	SHRQ $2, DX
	TESTQ   R14, R14
	JNZ     tload
	ZERO8
	JMP     lmask
tload:
	CMPQ    DX, $1
	JLT     lmask
	VMOVUPD 0(R14), Y0
	CMPQ    DX, $2
	JLT     lmask
	VMOVUPD 32(R14), Y1
	CMPQ    DX, $3
	JLT     lmask
	VMOVUPD 64(R14), Y2
	CMPQ    DX, $4
	JLT     lmask
	VMOVUPD 96(R14), Y3
	CMPQ    DX, $5
	JLT     lmask
	VMOVUPD 128(R14), Y4
	CMPQ    DX, $6
	JLT     lmask
	VMOVUPD 160(R14), Y5
	CMPQ    DX, $7
	JLT     lmask
	VMOVUPD 192(R14), Y6
lmask:
	MOVQ  SP, R10
	TESTQ $3, CX
	JZ    tplain
	TESTQ R14, R14
	JZ    qdispatch
	MOVQ       DX, BX
	SHLQ       $5, BX
	VMASKMOVPD (R14)(BX*1), Y14, Y7
qdispatch:
	CMPQ DX, $0
	JEQ  q0m
	CMPQ DX, $1
	JEQ  q1m
	CMPQ DX, $2
	JEQ  q2m
	CMPQ DX, $3
	JEQ  q3m
	CMPQ DX, $4
	JEQ  q4m
	CMPQ DX, $5
	JEQ  q5m
	CMPQ DX, $6
	JEQ  q6m
	JMP  q7m
tplain:
	CMPQ DX, $1
	JEQ  q1
	CMPQ DX, $2
	JEQ  q2
	CMPQ DX, $3
	JEQ  q3
	CMPQ DX, $4
	JEQ  q4
	CMPQ DX, $5
	JEQ  q5
	CMPQ DX, $6
	JEQ  q6
	JMP  q7

q0m:
	TERM
	TAILM(0)
	NEXT(q0m)
	JMP  tstore

q1:
	TERM
	TAIL1
	NEXT(q1)
	JMP  tstore

q1m:
	TERM
	TAIL1
	TAILM(32)
	NEXT(q1m)
	JMP  tstore

q2:
	TERM
	TAIL2
	NEXT(q2)
	JMP  tstore

q2m:
	TERM
	TAIL2
	TAILM(64)
	NEXT(q2m)
	JMP  tstore

q3:
	TERM
	TAIL3
	NEXT(q3)
	JMP  tstore

q3m:
	TERM
	TAIL3
	TAILM(96)
	NEXT(q3m)
	JMP  tstore

q4:
	TERM
	TAIL4
	NEXT(q4)
	JMP  tstore

q4m:
	TERM
	TAIL4
	TAILM(128)
	NEXT(q4m)
	JMP  tstore

q5:
	TERM
	TAIL5
	NEXT(q5)
	JMP  tstore

q5m:
	TERM
	TAIL5
	TAILM(160)
	NEXT(q5m)
	JMP  tstore

q6:
	TERM
	TAIL6
	NEXT(q6)
	JMP  tstore

q6m:
	TERM
	TAIL6
	TAILM(192)
	NEXT(q6m)
	JMP  tstore

q7:
	TERM
	TAIL7
	NEXT(q7)
	JMP  tstore

q7m:
	TERM
	TAIL7
	TAILM(224)
	NEXT(q7m)
	JMP  tstore

tstore:
	CMPQ    DX, $1
	JLT     smask
	VMOVUPD Y0, 0(DI)
	CMPQ    DX, $2
	JLT     smask
	VMOVUPD Y1, 32(DI)
	CMPQ    DX, $3
	JLT     smask
	VMOVUPD Y2, 64(DI)
	CMPQ    DX, $4
	JLT     smask
	VMOVUPD Y3, 96(DI)
	CMPQ    DX, $5
	JLT     smask
	VMOVUPD Y4, 128(DI)
	CMPQ    DX, $6
	JLT     smask
	VMOVUPD Y5, 160(DI)
	CMPQ    DX, $7
	JLT     smask
	VMOVUPD Y6, 192(DI)
smask:
	TESTQ $3, CX
	JZ    next
	MOVQ       DX, BX
	SHLQ       $5, BX
	VMASKMOVPD Y7, Y14, (DI)(BX*1)
	JMP        next

fill:
	// No terms and a start that is not o: copy the start's n columns
	// (or +0) to the row, four at a time, the last n%4 through Y14.
	MOVQ   R9, DI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	SHRQ   $2, BX
	JZ     ftail
floop:
	TESTQ   R14, R14
	JZ      fstore
	VMOVUPD (R14), Y0
	ADDQ    $32, R14
fstore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    BX
	JNZ     floop
ftail:
	TESTQ      $3, CX
	JZ         next
	TESTQ      R14, R14
	JZ         fmask
	VMASKMOVPD (R14), Y14, Y0
fmask:
	VMASKMOVPD Y0, Y14, (DI)

next:
	MOVQ os+8(FP), AX
	LEAQ (R9)(AX*8), R9
	MOVQ ar+48(FP), AX
	LEAQ (R11)(AX*8), R11
	MOVQ bs+32(FP), AX
	SHLQ $3, AX
	ADDQ AX, BROW(SP)
	DECQ R13
	JNZ  row
	VZEROUPPER
	RET
