#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// GROUPROW reads the count at (R9), clamps it to [0, Γ] without a branch
// (DX = Γ) and jumps to skip when that is 0: a silent row. Otherwise it
// leaves k = count − 1 in AX with bit k of present (R14) set, rows[k]'s
// address in BX (SI = rows, R11 = the lane row stride in bytes) and, in
// every lane of Y14, all ones when k ≥ Γ/2 (R12 = Γ/2 − 1) and zero
// otherwise: the mask of the dense row's summands. CX is clobbered.
#define GROUPROW(skip) \
	MOVQ         (R9), AX;        \
	XORQ         CX, CX;          \
	TESTQ        AX, AX;          \
	CMOVQLT      CX, AX;          \
	CMPQ         AX, DX;          \
	CMOVQGT      DX, AX;          \
	DECQ         AX;              \
	JS           skip;            \
	MOVQ         AX, CX;          \
	SHRQ         $6, CX;          \
	MOVQ         (R14)(CX*8), BX; \
	BTSQ         AX, BX;          \
	MOVQ         BX, (R14)(CX*8); \
	MOVQ         R12, BX;         \
	SUBQ         AX, BX;          \
	SARQ         $63, BX;         \
	VMOVQ        BX, X14;         \
	VPBROADCASTQ X14, Y14;        \
	MOVQ         AX, BX;          \
	IMULQ        R11, BX;         \
	ADDQ         SI, BX

// func lanesAVX2(drv, rows, lanes *uint64, counts *int, present, trains, silent *uint64, fired *uint16, nrows, window, half int, eta uint64)
//
// R11 holds the lane row stride in bytes, 16·half; Y12 is zero. A
// half-block row (half = 2) is one 32-byte block and takes its own path,
// halfgroup below; any other stride is a whole number of 64-byte chunks:
// two 256-bit blocks, one per polarity.
TEXT ·lanesAVX2(SB), NOSPLIT, $0-96
	MOVQ  drv+0(FP), DI
	MOVQ  rows+8(FP), SI
	MOVQ  half+80(FP), R11
	SHLQ  $4, R11
	VPXOR Y12, Y12, Y12

	// Group, one row at a time: R8 walks the lane rows, R9 the counts and
	// R10 counts the rows down (DX, R12 and R14 as GROUPROW reads them).
	MOVQ lanes+16(FP), R8
	MOVQ counts+24(FP), R9
	MOVQ nrows+64(FP), R10
	MOVQ window+72(FP), DX
	MOVQ DX, R12
	SHRQ $1, R12
	DECQ R12
	MOVQ present+32(FP), R14
	CMPQ R11, $32
	JEQ  halfgroup

	// Each 256-bit block of a firing row's lane row is added into rows[k]
	// and, masked, into the dense row rows[window] (R13).
	MOVQ  DX, R13
	IMULQ R11, R13
	ADDQ  SI, R13

group:
	GROUPROW(nextrow)
	XORQ CX, CX

groupblock:
	VMOVDQU (R8)(CX*1), Y0
	VPADDW  (BX)(CX*1), Y0, Y1
	VMOVDQU Y1, (BX)(CX*1)
	VPAND   Y14, Y0, Y0
	VPADDW  (R13)(CX*1), Y0, Y0
	VMOVDQU Y0, (R13)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, R11
	JB      groupblock

nextrow:
	ADDQ R11, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  group

	// Fill: every cycle's drives start as the dense row; then the dense
	// row is zeroed.
	MOVQ R13, R8
	MOVQ DI, AX

fillrow:
	XORQ CX, CX

fillchunk:
	VMOVDQU (R8)(CX*1), Y0
	VMOVDQU 32(R8)(CX*1), Y1
	VMOVDQU Y0, (AX)(CX*1)
	VMOVDQU Y1, 32(AX)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JB      fillchunk
	ADDQ    R11, AX
	DECQ    DX
	JNZ     fillrow
	XORQ    CX, CX

zerodense:
	VMOVDQU Y12, (R8)(CX*1)
	VMOVDQU Y12, 32(R8)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JB      zerodense

	// Accumulate, in passes over slices of the lane rows up to three
	// blocks per polarity wide: R14 = the slice's width in bytes (64, 128
	// or 192), DI and SI = the slice in drv's and rows' first row. R13
	// walks the present words and DX holds the counts left in the current
	// one. Count k+1's slice of rows[k] is read into Y1–Y6 and zeroed; the
	// count adds it on the cycles its train fires in, or (k ≥ Γ/2) adds it
	// negated on the cycles its train is silent in. R10 walks that train's
	// words, R12 counts them down and R9 is the drive row of the current
	// word's first cycle; BX holds the word's cycles left.
pass:
	MOVQ rows+8(FP), R14
	ADDQ R11, R14
	SUBQ SI, R14
	CMPQ R14, $192
	JBE  passwidth
	MOVQ $192, R14

passwidth:
	MOVQ present+32(FP), R13

presword:
	MOVQ  (R13), DX
	TESTQ DX, DX
	JZ    presnext

count:
	BSFQ    DX, AX
	LEAQ    -1(DX), CX
	ANDQ    CX, DX
	MOVQ    R13, CX
	SUBQ    present+32(FP), CX
	SHLQ    $3, CX
	ADDQ    CX, AX
	MOVQ    AX, R8
	IMULQ   R11, R8
	ADDQ    SI, R8
	VMOVDQU (R8), Y1
	VMOVDQU 32(R8), Y2
	VMOVDQU Y12, (R8)
	VMOVDQU Y12, 32(R8)
	CMPQ    R14, $64
	JEQ     loaded
	VMOVDQU 64(R8), Y3
	VMOVDQU 96(R8), Y4
	VMOVDQU Y12, 64(R8)
	VMOVDQU Y12, 96(R8)
	CMPQ    R14, $128
	JEQ     loaded
	VMOVDQU 128(R8), Y5
	VMOVDQU 160(R8), Y6
	VMOVDQU Y12, 128(R8)
	VMOVDQU Y12, 160(R8)

loaded:
	MOVQ   trains+40(FP), R10
	MOVQ   window+72(FP), CX
	SHRQ   $1, CX
	CMPQ   AX, CX
	JLT    sparse
	MOVQ   silent+48(FP), R10
	VPSUBW Y1, Y12, Y1
	VPSUBW Y2, Y12, Y2
	VPSUBW Y3, Y12, Y3
	VPSUBW Y4, Y12, Y4
	VPSUBW Y5, Y12, Y5
	VPSUBW Y6, Y12, Y6

sparse:
	MOVQ  window+72(FP), R12
	ADDQ  $63, R12
	SHRQ  $6, R12
	INCQ  AX
	IMULQ R12, AX
	LEAQ  (R10)(AX*8), R10
	MOVQ  DI, R9

trainword:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    nextword
	CMPQ  R14, $128
	JEQ   event128
	JA    event192

event64:
	BSFQ    BX, AX
	LEAQ    -1(BX), CX
	ANDQ    CX, BX
	IMULQ   R11, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VPADDW  32(R9)(AX*1), Y2, Y7
	VMOVDQU Y0, (R9)(AX*1)
	VMOVDQU Y7, 32(R9)(AX*1)
	TESTQ   BX, BX
	JNZ     event64
	JMP     nextword

event128:
	BSFQ    BX, AX
	LEAQ    -1(BX), CX
	ANDQ    CX, BX
	IMULQ   R11, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VPADDW  32(R9)(AX*1), Y2, Y7
	VMOVDQU Y0, (R9)(AX*1)
	VMOVDQU Y7, 32(R9)(AX*1)
	VPADDW  64(R9)(AX*1), Y3, Y0
	VPADDW  96(R9)(AX*1), Y4, Y7
	VMOVDQU Y0, 64(R9)(AX*1)
	VMOVDQU Y7, 96(R9)(AX*1)
	TESTQ   BX, BX
	JNZ     event128
	JMP     nextword

event192:
	BSFQ    BX, AX
	LEAQ    -1(BX), CX
	ANDQ    CX, BX
	IMULQ   R11, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VPADDW  32(R9)(AX*1), Y2, Y7
	VMOVDQU Y0, (R9)(AX*1)
	VMOVDQU Y7, 32(R9)(AX*1)
	VPADDW  64(R9)(AX*1), Y3, Y0
	VPADDW  96(R9)(AX*1), Y4, Y7
	VMOVDQU Y0, 64(R9)(AX*1)
	VMOVDQU Y7, 96(R9)(AX*1)
	VPADDW  128(R9)(AX*1), Y5, Y0
	VPADDW  160(R9)(AX*1), Y6, Y7
	VMOVDQU Y0, 128(R9)(AX*1)
	VMOVDQU Y7, 160(R9)(AX*1)
	TESTQ   BX, BX
	JNZ     event192

nextword:
	ADDQ  $8, R10
	MOVQ  R11, CX
	SHLQ  $6, CX
	ADDQ  CX, R9
	DECQ  R12
	JNZ   trainword
	TESTQ DX, DX
	JNZ   count

presnext:
	ADDQ $8, R13
	MOVQ window+72(FP), CX
	ADDQ $63, CX
	SHRQ $6, CX
	SHLQ $3, CX
	ADDQ present+32(FP), CX
	CMPQ R13, CX
	JB   presword

	ADDQ R14, DI
	ADDQ R14, SI
	MOVQ rows+8(FP), CX
	ADDQ R11, CX
	CMPQ SI, CX
	JB   pass

	// Every pass has read present: leave it zero for the next item.
	MOVQ present+32(FP), R13
	MOVQ window+72(FP), CX
	ADDQ $63, CX
	SHRQ $6, CX

zeropresent:
	MOVQ $0, (R13)
	ADDQ $8, R13
	DECQ CX
	JNZ  zeropresent

	// Walk, one block of sixteen columns at a time through every cycle.
	// Y0/Y1 = positive/negative membranes, kept biased by Y4 = 2^15 − η:
	// a lane's bit 15 is set exactly when its membrane is ≥ η, so an
	// arithmetic shift by 15 is the neuron's fire mask and the mask AND
	// Y5 = η is what it subtracts. Y2 = debt, Y3 = fired, Y10 = sp as 0/1:
	// the subtracter's cancel, sp where debt > 0, is min(sp, debt). AX
	// walks the block's positive drives down the cycles, R12 is the offset
	// of the negative ones, R8 the block's first positive drive and R10
	// its fired lanes.
	MOVQ         eta+88(FP), AX
	VMOVQ        AX, X5
	VPBROADCASTW X5, Y5
	MOVQ         $0x8000, CX
	SUBQ         AX, CX
	VMOVQ        CX, X4
	VPBROADCASTW X4, Y4
	MOVQ         fired+56(FP), R10
	MOVQ         half+80(FP), R9
	SHRQ         $2, R9
	MOVQ         R11, R12
	SHRQ         $1, R12
	MOVQ         drv+0(FP), R8

block:
	VMOVDQU Y4, Y0
	VMOVDQU Y4, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	MOVQ    R8, AX
	MOVQ    window+72(FP), CX

cycle:
	VPADDW  (AX), Y0, Y0
	VPSRAW  $15, Y0, Y7
	VPSRLW  $15, Y0, Y10
	VPAND   Y5, Y7, Y7
	VPSUBW  Y7, Y0, Y0
	VPADDW  (AX)(R12*1), Y1, Y1
	VPSRAW  $15, Y1, Y8
	VPAND   Y5, Y8, Y9
	VPSUBW  Y9, Y1, Y1
	VPSUBW  Y8, Y2, Y2
	VPMINUW Y10, Y2, Y9
	VPSUBW  Y9, Y2, Y2
	VPSUBW  Y9, Y10, Y10
	VPADDW  Y10, Y3, Y3
	ADDQ    R11, AX
	DECQ    CX
	JNZ     cycle
	VMOVDQU Y3, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R8
	DECQ    R9
	JNZ     block

	VZEROUPPER
	RET

	// Half-block rows: a lane row is one block, the positive lanes in its
	// low 128 bits and the negative ones in its high 128 bits. Group as
	// above, but sum the dense row in Y13: rows[window] is never touched.
halfgroup:
	VPXOR Y13, Y13, Y13

hgroup:
	GROUPROW(hnextrow)
	VMOVDQU (R8), Y0
	VPADDW  (BX), Y0, Y1
	VMOVDQU Y1, (BX)
	VPAND   Y14, Y0, Y0
	VPADDW  Y0, Y13, Y13

hnextrow:
	ADDQ $32, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  hgroup

	// Fill: every cycle's drives start as the dense row.
	MOVQ DI, AX
	MOVQ DX, CX

hfill:
	VMOVDQU Y13, (AX)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     hfill

	// Accumulate, in one pass: count k+1's row rows[k] is read into Y1 and
	// zeroed, and (k ≥ Γ/2) negated and added on the cycles its train is
	// silent in, else added on those it fires in: one VPADDW and one store
	// per spike event. R11 = words per train; R13 walks the present words,
	// zeroing each, up to R14; DX holds the counts left in the current
	// word. R10 walks the count's train, R12 counts its words down and R9
	// is the drive row of the current word's first cycle (rows of 64
	// cycles are 2,048 bytes apart); BX holds the word's cycles left.
	MOVQ DX, R11
	ADDQ $63, R11
	SHRQ $6, R11
	MOVQ R14, R13
	LEAQ (R14)(R11*8), R14

hpresword:
	MOVQ  (R13), DX
	MOVQ  $0, (R13)
	TESTQ DX, DX
	JZ    hpresnext

hcount:
	BSFQ    DX, AX
	LEAQ    -1(DX), CX
	ANDQ    CX, DX
	MOVQ    R13, CX
	SUBQ    present+32(FP), CX
	SHLQ    $3, CX
	ADDQ    CX, AX
	MOVQ    AX, R8
	SHLQ    $5, R8
	ADDQ    SI, R8
	VMOVDQU (R8), Y1
	VMOVDQU Y12, (R8)
	MOVQ    trains+40(FP), R10
	MOVQ    window+72(FP), CX
	SHRQ    $1, CX
	CMPQ    AX, CX
	JLT     hsparse
	MOVQ    silent+48(FP), R10
	VPSUBW  Y1, Y12, Y1

hsparse:
	INCQ  AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*8), R10
	MOVQ  R11, R12
	MOVQ  DI, R9

htrainword:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    hnextword

hevent:
	BSFQ    BX, AX
	LEAQ    -1(BX), CX
	ANDQ    CX, BX
	SHLQ    $5, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VMOVDQU Y0, (R9)(AX*1)
	TESTQ   BX, BX
	JNZ     hevent

hnextword:
	ADDQ  $8, R10
	ADDQ  $2048, R9
	DECQ  R12
	JNZ   htrainword
	TESTQ DX, DX
	JNZ   hcount

hpresnext:
	ADDQ $8, R13
	CMPQ R13, R14
	JB   hpresword

	// Walk: Y0 holds both membranes of the eight columns, biased as in the
	// blocks' walk, so one VPADDW, VPSRAW, VPAND and VPSUBW step both
	// neurons. The subtracter runs in the low 128 bits, off the membranes'
	// recurrence: X10 = sp as 0/1, X9 = the negative fire mask moved down
	// by VEXTRACTI128, X2 = debt, X3 = fired. AX walks the drive rows.
	MOVQ         eta+88(FP), AX
	VMOVQ        AX, X5
	VPBROADCASTW X5, Y5
	MOVQ         $0x8000, CX
	SUBQ         AX, CX
	VMOVQ        CX, X0
	VPBROADCASTW X0, Y0
	VPXOR        X2, X2, X2
	VPXOR        X3, X3, X3
	MOVQ         DI, AX
	MOVQ         window+72(FP), CX

hcycle:
	VPADDW       (AX), Y0, Y0
	VPSRAW       $15, Y0, Y7
	VPSRLW       $15, X0, X10
	VPAND        Y5, Y7, Y8
	VPSUBW       Y8, Y0, Y0
	VEXTRACTI128 $1, Y7, X9
	VPSUBW       X9, X2, X2
	VPMINUW      X10, X2, X11
	VPSUBW       X11, X2, X2
	VPSUBW       X11, X10, X10
	VPADDW       X10, X3, X3
	ADDQ         $32, AX
	DECQ         CX
	JNZ          hcycle
	MOVQ         fired+56(FP), R10
	VMOVDQU      X3, (R10)
	VZEROUPPER
	RET

// FSTEP steps four float-walk columns one cycle with drives DP and DN (YMM
// registers or memory): colNeuron.step as masks, on positive and negative
// membranes MP and MN, debt DEBT and output FIRED (int64 lanes). Y4 = η in
// every lane and Y5 = zero. Predicate 0x1D is GE_OQ: false on NaN, as Go's
// >=. Y6–Y9 are clobbered.
#define FSTEP(DP, DN, MP, MN, DEBT, FIRED) \
	VADDPD   DP, MP, MP;        \
	VCMPPD   $0x1d, Y4, MP, Y6; \
	VANDPD   Y4, Y6, Y8;        \
	VSUBPD   Y8, MP, MP;        \
	VADDPD   DN, MN, MN;        \
	VCMPPD   $0x1d, Y4, MN, Y7; \
	VANDPD   Y4, Y7, Y9;        \
	VSUBPD   Y9, MN, MN;        \
	VPSUBQ   Y7, DEBT, DEBT;    \
	VPCMPGTQ Y5, DEBT, Y8;      \
	VPAND    Y6, Y8, Y8;        \
	VPADDQ   Y8, DEBT, DEBT;    \
	VPXOR    Y6, Y8, Y8;        \
	VPSUBQ   Y8, FIRED, FIRED

// func floatWalkAVX2(drv, rows *float64, counts *int, trains, live *uint64, fired *int64, nrows, window, blocks int, eta float64)
//
// R10 holds live, R11 the lane row stride in bytes (64·blocks: a whole
// number of 64-byte chunks) and R13 the words per train throughout.
TEXT ·floatWalkAVX2(SB), NOSPLIT, $0-80
	MOVQ drv+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ counts+16(FP), R8
	MOVQ nrows+48(FP), R9
	MOVQ live+32(FP), R10
	MOVQ blocks+64(FP), R11
	SHLQ $6, R11
	MOVQ window+56(FP), R13
	ADDQ $63, R13
	SHRQ $6, R13

	// Accumulate, one unit per firing row in ascending row order: SI is the
	// row's lane row and R8 its count. A count clamped to [1, Γ] picks its
	// train (R12), whose words — BX numbers them — are OR-ed into live, and
	// on every cycle t the train fires in the lane row is added into drive
	// row t, drive first.
unit:
	MOVQ    (R8), AX
	TESTQ   AX, AX
	JLE     nextunit
	MOVQ    window+56(FP), CX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	IMULQ   R13, AX
	MOVQ    trains+24(FP), R12
	LEAQ    (R12)(AX*8), R12
	XORQ    BX, BX

unitword:
	MOVQ  (R12)(BX*8), DX
	ORQ   DX, (R10)(BX*8)
	TESTQ DX, DX
	JZ    nextunitword

event:
	BSFQ  DX, AX
	LEAQ  -1(DX), CX
	ANDQ  CX, DX
	MOVQ  BX, CX
	SHLQ  $6, CX
	ADDQ  CX, AX
	IMULQ R11, AX
	ADDQ  DI, AX
	XORQ  CX, CX

addchunk:
	VMOVUPD (AX)(CX*1), Y0
	VMOVUPD 32(AX)(CX*1), Y1
	VADDPD  (SI)(CX*1), Y0, Y0
	VADDPD  32(SI)(CX*1), Y1, Y1
	VMOVUPD Y0, (AX)(CX*1)
	VMOVUPD Y1, 32(AX)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JB      addchunk
	TESTQ   DX, DX
	JNZ     event

nextunitword:
	INCQ BX
	CMPQ BX, R13
	JB   unitword

nextunit:
	ADDQ $8, R8
	ADDQ R11, SI
	DECQ R9
	JNZ  unit

	// Walk, two blocks of four columns at a time, so that two independent
	// membrane chains are in flight: block A in Y0–Y3 and block B in
	// Y10–Y13 (membranes, debt, fired, as FSTEP). DI is A's positive drive
	// in drive row 0, R14 B's offset from it (32, or 0 when one block is
	// left: B then repeats A's computation and stores the same counts), SI
	// the offset of a block's negative drive; R12 counts the blocks left
	// and R9 walks fired. Per pass, BX numbers the live words and DX holds
	// the current word's cycles left; AX is the next live cycle, or Γ once
	// there is none, R8 the last one stepped (−1 before the first), and CX
	// counts the zero-drive cycles between them, stepped only while some
	// lane of the pass is hot.
	VBROADCASTSD eta+72(FP), Y4
	VXORPD       Y5, Y5, Y5
	MOVQ         R11, SI
	SHRQ         $1, SI
	MOVQ         blocks+64(FP), R12
	MOVQ         fired+40(FP), R9

fblock:
	MOVQ   $32, R14
	CMPQ   R12, $1
	JNE    fpair
	XORQ   R14, R14

fpair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VPXOR  Y2, Y2, Y2
	VPXOR  Y3, Y3, Y3
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VPXOR  Y12, Y12, Y12
	VPXOR  Y13, Y13, Y13
	MOVQ   $-1, R8
	XORQ   BX, BX
	MOVQ   (R10), DX

nextlive:
	TESTQ DX, DX
	JNZ   livecycle
	INCQ  BX
	CMPQ  BX, R13
	JAE   windowend
	MOVQ  (R10)(BX*8), DX
	JMP   nextlive

livecycle:
	BSFQ DX, AX
	LEAQ -1(DX), CX
	ANDQ CX, DX
	MOVQ BX, CX
	SHLQ $6, CX
	ADDQ CX, AX
	JMP  gap

windowend:
	MOVQ window+56(FP), AX

gap:
	MOVQ AX, CX
	SUBQ R8, CX
	MOVQ AX, R8
	DECQ CX
	JZ   drive

drain:
	VCMPPD $0x1d, Y4, Y0, Y6
	VCMPPD $0x1d, Y4, Y1, Y7
	VCMPPD $0x1d, Y4, Y10, Y8
	VCMPPD $0x1d, Y4, Y11, Y9
	VORPD  Y6, Y7, Y6
	VORPD  Y8, Y9, Y8
	VORPD  Y6, Y8, Y6
	VPTEST Y6, Y6
	JZ     drive
	FSTEP(Y5, Y5, Y0, Y1, Y2, Y3)
	FSTEP(Y5, Y5, Y10, Y11, Y12, Y13)
	DECQ   CX
	JNZ    drain

drive:
	CMPQ  AX, window+56(FP)
	JEQ   fblockdone
	IMULQ R11, AX
	ADDQ  DI, AX
	LEAQ  (AX)(R14*1), CX
	FSTEP((AX), (AX)(SI*1), Y0, Y1, Y2, Y3)
	FSTEP((CX), (CX)(SI*1), Y10, Y11, Y12, Y13)
	JMP   nextlive

fblockdone:
	VMOVDQU Y3, (R9)
	VMOVDQU Y13, (R9)(R14*1)
	ADDQ    $64, R9
	ADDQ    $64, DI
	SUBQ    $2, R12
	JGT     fblock

	// Leave drv and live zero for the next item: clear each live word, and
	// the drive row of each of its cycles.
	MOVQ drv+0(FP), DI
	XORQ BX, BX

zeroword:
	MOVQ  (R10)(BX*8), DX
	MOVQ  $0, (R10)(BX*8)
	TESTQ DX, DX
	JZ    nextzeroword

zerocycle:
	BSFQ  DX, AX
	LEAQ  -1(DX), CX
	ANDQ  CX, DX
	MOVQ  BX, CX
	SHLQ  $6, CX
	ADDQ  CX, AX
	IMULQ R11, AX
	ADDQ  DI, AX
	XORQ  CX, CX

zerochunk:
	VMOVUPD Y5, (AX)(CX*1)
	VMOVUPD Y5, 32(AX)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JB      zerochunk
	TESTQ   DX, DX
	JNZ     zerocycle

nextzeroword:
	INCQ BX
	CMPQ BX, R13
	JB   zeroword

	VZEROUPPER
	RET

// RMUL adds the product of Y15 (one count in every dword) and the weight
// quad at off(AX) into the packed sums ACC: VPMULLD multiplies each cell's
// N and P halves as two 32-bit lanes, and neither lane can wrap (see
// referenceAVX2). Y14 is clobbered.
#define RMUL(off, ACC) \
	VPMULLD off(AX), Y15, Y14; \
	VPADDD  Y14, ACC, ACC

// func referenceAVX2(dst *int, w, x *uint64, rows, cols, quads int)
//
// A word of dst or w is two little-endian dword lanes, N then P, so four
// packed sums or cells fill one YMM register. The sums are carried in
// registers down the panel's rows in passes of 8, 4, 2 and 1 quads (four
// columns each): a pass of 8 repeats while 8 quads are left, then each
// narrower width runs at most once, so any width takes at most one pass of
// each. DI walks dst and SI the panel's first weight row, a pass at a time;
// DX is x, CX rows, R8 the weight row stride in bytes (8·cols) and BX the
// quads left. In a pass AX walks the rows' weights, R9 their counts (the
// low dword of each x word: a count is at most Γ < 2^32) and R10 counts the
// rows down; each row's count is broadcast into Y15.
TEXT ·referenceAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R8
	SHLQ $3, R8
	MOVQ quads+40(FP), BX

ref8:
	CMPQ    BX, $8
	JB      ref4
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU 128(DI), Y4
	VMOVDQU 160(DI), Y5
	VMOVDQU 192(DI), Y6
	VMOVDQU 224(DI), Y7
	MOVQ    SI, AX
	MOVQ    DX, R9
	MOVQ    CX, R10
	PCALIGN $64

row8:
	VPBROADCASTD (R9), Y15
	RMUL(0, Y0)
	RMUL(32, Y1)
	RMUL(64, Y2)
	RMUL(96, Y3)
	RMUL(128, Y4)
	RMUL(160, Y5)
	RMUL(192, Y6)
	RMUL(224, Y7)
	ADDQ         R8, AX
	ADDQ         $8, R9
	DECQ         R10
	JNZ          row8
	VMOVDQU      Y0, (DI)
	VMOVDQU      Y1, 32(DI)
	VMOVDQU      Y2, 64(DI)
	VMOVDQU      Y3, 96(DI)
	VMOVDQU      Y4, 128(DI)
	VMOVDQU      Y5, 160(DI)
	VMOVDQU      Y6, 192(DI)
	VMOVDQU      Y7, 224(DI)
	ADDQ         $256, DI
	ADDQ         $256, SI
	SUBQ         $8, BX
	JMP          ref8

ref4:
	CMPQ    BX, $4
	JB      ref2
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	MOVQ    SI, AX
	MOVQ    DX, R9
	MOVQ    CX, R10
	PCALIGN $64

row4:
	VPBROADCASTD (R9), Y15
	RMUL(0, Y0)
	RMUL(32, Y1)
	RMUL(64, Y2)
	RMUL(96, Y3)
	ADDQ         R8, AX
	ADDQ         $8, R9
	DECQ         R10
	JNZ          row4
	VMOVDQU      Y0, (DI)
	VMOVDQU      Y1, 32(DI)
	VMOVDQU      Y2, 64(DI)
	VMOVDQU      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $4, BX

ref2:
	CMPQ    BX, $2
	JB      ref1
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	MOVQ    SI, AX
	MOVQ    DX, R9
	MOVQ    CX, R10
	PCALIGN $64

row2:
	VPBROADCASTD (R9), Y15
	RMUL(0, Y0)
	RMUL(32, Y1)
	ADDQ         R8, AX
	ADDQ         $8, R9
	DECQ         R10
	JNZ          row2
	VMOVDQU      Y0, (DI)
	VMOVDQU      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $2, BX

ref1:
	TESTQ   BX, BX
	JZ      refdone
	VMOVDQU (DI), Y0
	MOVQ    SI, AX
	MOVQ    DX, R9
	MOVQ    CX, R10
	PCALIGN $64

row1:
	VPBROADCASTD (R9), Y15
	RMUL(0, Y0)
	ADDQ         R8, AX
	ADDQ         $8, R9
	DECQ         R10
	JNZ          row1
	VMOVDQU      Y0, (DI)

refdone:
	VZEROUPPER
	RET
