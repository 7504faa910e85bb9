#include "textflag.h"

// The trainer's AVX2 bodies. Every product and every sum is one VMULPD and
// one VADDPD or VSUBPD, never a fused multiply-add, so each rounds exactly
// as the portable Go body's does (docs/INVARIANTS.md, "Trained weights ≡
// naive SGD").

// func forwardAVX2(out, w *float64, rows *int, xs *float64, nrows, quads int)
//
// Sixteen columns per pass in Y0–Y3, then four in Y0: each row in rows
// adds w·x to the sums in ascending order, from +0. ReLU is VMAXPD with
// +0 (Y15) as its first source in Intel order, the middle operand in Go's:
// MAXPD returns its second source when either is NaN or both are zero, so
// NaN and −0 come out as relu gives them.
TEXT ·forwardAVX2(SB), NOSPLIT, $0-48
	MOVQ   out+0(FP), DI
	MOVQ   w+8(FP), SI
	MOVQ   rows+16(FP), R8
	MOVQ   xs+24(FP), R9
	MOVQ   nrows+32(FP), R10
	MOVQ   quads+40(FP), CX
	VXORPD Y15, Y15, Y15

fwd16:
	CMPQ   CX, $4
	JLT    fwd4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   BX, BX
	JMP    fwd16test

fwd16row:
	MOVQ         (R8)(BX*8), AX
	LEAQ         (SI)(AX*8), AX
	VBROADCASTSD (R9)(BX*8), Y4
	VMULPD       (AX), Y4, Y5
	VMULPD       32(AX), Y4, Y6
	VMULPD       64(AX), Y4, Y7
	VMULPD       96(AX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         BX

fwd16test:
	CMPQ    BX, R10
	JLT     fwd16row
	VMAXPD  Y0, Y15, Y0
	VMAXPD  Y1, Y15, Y1
	VMAXPD  Y2, Y15, Y2
	VMAXPD  Y3, Y15, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $4, CX
	JMP     fwd16

fwd4:
	TESTQ  CX, CX
	JZ     fwddone
	VXORPD Y0, Y0, Y0
	XORQ   BX, BX
	JMP    fwd4test

fwd4row:
	MOVQ         (R8)(BX*8), AX
	VBROADCASTSD (R9)(BX*8), Y4
	VMULPD       (SI)(AX*8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         BX

fwd4test:
	CMPQ    BX, R10
	JLT     fwd4row
	VMAXPD  Y0, Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JMP     fwd4

fwddone:
	VZEROUPPER
	RET

// func backwardAVX2(w, lg, grad, x, next *float64, groups, quads, stride int)
//
// One group of four rows at a time (AX, BX, R13, R14), four columns per
// pass: the 4×4 block of weights is loaded as rows (Y0–Y3), updated to
// w − lg·x (Y10–Y13 = x broadcast) and stored; then the products w·grad
// are transposed in registers (VUNPCKLPD/VUNPCKHPD within 128-bit halves,
// VPERM2F128 across them) so that lane r of the k-th column is row r's
// product at column j+k, and the columns add into Y15 in ascending k. Each
// lane of Y15 is one row's gradient chain, in ascending j from +0.
TEXT ·backwardAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ lg+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ x+24(FP), R8
	MOVQ next+32(FP), R9
	MOVQ groups+40(FP), R10
	MOVQ quads+48(FP), R11
	MOVQ stride+56(FP), R12
	SHLQ $5, R11
	SHLQ $3, R12

bwgroup:
	MOVQ         DI, AX
	LEAQ         (DI)(R12*1), BX
	LEAQ         (DI)(R12*2), R13
	LEAQ         (BX)(R12*2), R14
	VBROADCASTSD (R8), Y10
	VBROADCASTSD 8(R8), Y11
	VBROADCASTSD 16(R8), Y12
	VBROADCASTSD 24(R8), Y13
	VXORPD       Y15, Y15, Y15
	XORQ         CX, CX

bwblock:
	VMOVUPD    (SI)(CX*1), Y8
	VMOVUPD    (DX)(CX*1), Y9
	VMOVUPD    (AX), Y0
	VMOVUPD    (BX), Y1
	VMOVUPD    (R13), Y2
	VMOVUPD    (R14), Y3
	VMULPD     Y10, Y8, Y4
	VMULPD     Y11, Y8, Y5
	VMULPD     Y12, Y8, Y6
	VMULPD     Y13, Y8, Y7
	VSUBPD     Y4, Y0, Y4
	VSUBPD     Y5, Y1, Y5
	VSUBPD     Y6, Y2, Y6
	VSUBPD     Y7, Y3, Y7
	VMOVUPD    Y4, (AX)
	VMOVUPD    Y5, (BX)
	VMOVUPD    Y6, (R13)
	VMOVUPD    Y7, (R14)
	VMULPD     Y9, Y0, Y0
	VMULPD     Y9, Y1, Y1
	VMULPD     Y9, Y2, Y2
	VMULPD     Y9, Y3, Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VADDPD     Y0, Y15, Y15
	VADDPD     Y1, Y15, Y15
	VADDPD     Y2, Y15, Y15
	VADDPD     Y3, Y15, Y15
	ADDQ       $32, AX
	ADDQ       $32, BX
	ADDQ       $32, R13
	ADDQ       $32, R14
	ADDQ       $32, CX
	CMPQ       CX, R11
	JLT        bwblock

	VMOVUPD Y15, (R9)
	LEAQ    (DI)(R12*4), DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    R10
	JNZ     bwgroup
	VZEROUPPER
	RET

// func updateAVX2(w, lg *float64, rows *int, xs *float64, nrows, quads int)
TEXT ·updateAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ lg+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ xs+24(FP), R9
	MOVQ nrows+32(FP), R10
	MOVQ quads+40(FP), R11
	SHLQ $5, R11
	XORQ BX, BX
	JMP  uptest

uprow:
	MOVQ         (R8)(BX*8), AX
	LEAQ         (DI)(AX*8), AX
	VBROADCASTSD (R9)(BX*8), Y8
	XORQ         CX, CX

upcol:
	VMOVUPD (SI)(CX*1), Y0
	VMULPD  Y8, Y0, Y0
	VMOVUPD (AX)(CX*1), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (AX)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R11
	JLT     upcol
	INCQ    BX

uptest:
	CMPQ BX, R10
	JLT  uprow
	VZEROUPPER
	RET
