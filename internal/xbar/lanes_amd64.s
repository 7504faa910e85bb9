#include "textflag.h"

// GROUPROW reads the 16-bit count at (R9), caps it at Γ without a branch
// (DX = Γ; a count is at most Γ, and the cap keeps a larger one from
// indexing past rows) and jumps to skip when it is 0: a silent row.
// Otherwise it leaves k = count − 1 in AX with bit k of present (R14)
// set, rows[k]'s address in BX (SI = rows, R11 = the lane row stride in
// bytes) and, in every lane of Y14, all ones when k ≥ Γ/2 (R12 =
// Γ/2 − 1) and zero otherwise: the mask of the dense row's summands. CX
// is clobbered.
#define GROUPROW(skip) \
	MOVWQZX      (R9), AX;        \
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

// func lanesAVX2(drv, rows, lanes *uint64, counts *uint16, present, trains, silent *uint64, fired *uint16, nrows, window, half int, eta uint64)
//
// R11 holds the lane row stride in bytes, 16·half; Y12 is zero. A
// half-block row (half = 2) is one 32-byte block and takes its own path,
// halfgroup below; any other stride is a whole number of 64-byte chunks:
// two 256-bit blocks, one per polarity. The PCALIGN at offset 0 pads
// nothing and makes the entry 64-byte aligned, so the loops keep their
// alignment whatever the linker places before the function.
TEXT ·lanesAVX2(SB), NOSPLIT, $0-96
	PCALIGN $64
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
	ADDQ $2, R9
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
	TZCNTQ  DX, AX
	BLSRQ   DX, DX
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
	TZCNTQ  BX, AX
	BLSRQ   BX, BX
	IMULQ   R11, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VPADDW  32(R9)(AX*1), Y2, Y7
	VMOVDQU Y0, (R9)(AX*1)
	VMOVDQU Y7, 32(R9)(AX*1)
	TESTQ   BX, BX
	JNZ     event64
	JMP     nextword

event128:
	TZCNTQ  BX, AX
	BLSRQ   BX, BX
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
	TZCNTQ  BX, AX
	BLSRQ   BX, BX
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
	// Y0/Y1 = positive/negative membranes and Y5 = η in every lane; each
	// steps as the half-block walk's does (m += d, t = m − η, m =
	// min(m, t) unsigned, fire mask m = t). Y2/Y10 count the positive and
	// negative fires and Y3 is the output, the running maximum of
	// F⁺ − F⁻ saturated at 0. AX walks the block's positive drives down
	// the cycles, R12 is the offset of the negative ones, R8 the block's
	// first positive drive and R10 its fired lanes.
	MOVQ         eta+88(FP), AX
	VMOVQ        AX, X5
	VPBROADCASTW X5, Y5
	MOVQ         fired+56(FP), R10
	MOVQ         half+80(FP), R9
	SHRQ         $2, R9
	MOVQ         R11, R12
	SHRQ         $1, R12
	MOVQ         drv+0(FP), R8

block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y10, Y10, Y10
	MOVQ  R8, AX
	MOVQ  window+72(FP), CX

cycle:
	VPADDW   (AX), Y0, Y0
	VPSUBW   Y5, Y0, Y7
	VPMINUW  Y7, Y0, Y0
	VPCMPEQW Y7, Y0, Y7
	VPADDW   (AX)(R12*1), Y1, Y1
	VPSUBW   Y5, Y1, Y8
	VPMINUW  Y8, Y1, Y1
	VPCMPEQW Y8, Y1, Y8
	VPSUBW   Y7, Y2, Y2
	VPSUBW   Y8, Y10, Y10
	VPSUBUSW Y10, Y2, Y9
	VPMAXUW  Y9, Y3, Y3
	ADDQ     R11, AX
	DECQ     CX
	JNZ      cycle
	VMOVDQU  Y3, (R10)
	ADDQ     $32, R10
	ADDQ     $32, R8
	DECQ     R9
	JNZ      block

	VZEROUPPER
	RET

	// Half-block rows: a lane row is one block, the positive lanes in its
	// low 128 bits and the negative ones in its high 128 bits. Group as
	// above, but sum the dense row in Y13: rows[window] is never touched.
	// There is no fill: drv is zero on entry, the accumulate adds and
	// subtracts into it, and the walk adds Y13 to each drive row as it
	// reads it and zeroes the row behind it.
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
	ADDQ $2, R9
	DECQ R10
	JNZ  hgroup

	// Accumulate, in one pass: count k+1's row rows[k] is read into Y1 and
	// zeroed, and (k ≥ Γ/2) negated and added on the cycles its train is
	// silent in, else added on those it fires in: one VPADDW and one store
	// per spike event, two events per trip. R11 = words per train; R13
	// walks the present words, zeroing each, up to R14; DX holds the counts
	// left in the current word. R10 walks the count's train, R12 counts its
	// words down and R9 is the drive row of the current word's first cycle
	// (rows of 64 cycles are 2,048 bytes apart); BX holds the word's cycles
	// left. Bits are taken with TZCNT and cleared with BLSR, so no scan
	// waits on the address of the event before it.
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
	TZCNTQ  DX, AX
	BLSRQ   DX, DX
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
	TZCNTQ  BX, AX
	BLSRQ   BX, BX
	JZ      hlastevent
	TZCNTQ  BX, CX
	SHLQ    $5, AX
	SHLQ    $5, CX
	VPADDW  (R9)(AX*1), Y1, Y0
	VPADDW  (R9)(CX*1), Y1, Y2
	VMOVDQU Y0, (R9)(AX*1)
	VMOVDQU Y2, (R9)(CX*1)
	BLSRQ   BX, BX
	JNZ     hevent
	JMP     hnextword

hlastevent:
	SHLQ    $5, AX
	VPADDW  (R9)(AX*1), Y1, Y0
	VMOVDQU Y0, (R9)(AX*1)

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

	// Walk: Y0 holds both membranes of the eight columns and Y5 = η in
	// every lane. A step is m += d, then t = m − η and m = min(m, t) as
	// unsigned words: t wraps above 2^15 where m < η, so the minimum
	// subtracts η exactly where the neuron fires, and m = t there is its
	// fire mask (all ones). Y2 counts the fires, the positive neurons' in
	// lanes 0–7 and the negative ones' in lanes 8–15; the subtracter's
	// output X3 is the running maximum of F⁺ − F⁻, saturated at 0, in the
	// low 128 bits, off the membranes' recurrence (docs/INVARIANTS.md,
	// "Integer lanes", item 4). AX walks the drive rows; a cycle's drives
	// are its row plus the dense row, Y13, and Y12 zeroes the row.
	MOVQ         eta+88(FP), AX
	VMOVQ        AX, X5
	VPBROADCASTW X5, Y5
	VPXOR        Y0, Y0, Y0
	VPXOR        Y2, Y2, Y2
	VPXOR        X3, X3, X3
	MOVQ         DI, AX
	MOVQ         window+72(FP), CX

hcycle:
	VPADDW       (AX), Y13, Y6
	VMOVDQU      Y12, (AX)
	VPADDW       Y6, Y0, Y0
	VPSUBW       Y5, Y0, Y7
	VPMINUW      Y7, Y0, Y0
	VPCMPEQW     Y7, Y0, Y7
	VPSUBW       Y7, Y2, Y2
	VEXTRACTI128 $1, Y2, X9
	VPSUBUSW     X9, X2, X10
	VPMAXUW      X10, X3, X3
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

// func floatWalkAVX2(drv, rows *float64, counts *uint16, trains, live *uint64, fired *int64, nrows, window, blocks int, eta float64)
//
// R10 holds live, R11 the lane row stride in bytes (64·blocks: a whole
// number of 64-byte chunks) and R13 the words per train throughout. The
// entry is 64-byte aligned, as lanesAVX2's is.
TEXT ·floatWalkAVX2(SB), NOSPLIT, $0-80
	PCALIGN $64
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
	// row's lane row and R8 its 16-bit count. A count in [1, Γ] (capped at
	// Γ, so a larger one cannot index past the trains) picks its train
	// (R12), whose words — BX numbers them — are OR-ed into live, and on
	// every cycle t the train fires in the lane row is added into drive
	// row t, drive first.
unit:
	MOVWQZX (R8), AX
	TESTQ   AX, AX
	JZ      nextunit
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
	ADDQ $2, R8
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

// RPAIR adds the products of Y15 (one count pair in every dword) and the
// pair words at off(AX) into the packed sums ACC: VPMADDWD multiplies each
// word's two 16-bit N halves by the two counts and adds them into the N
// dword, and the same for P, and neither dword can wrap (see
// referenceAVX2). Y14 is clobbered.
#define RPAIR(off, ACC) \
	VPMADDWD off(AX), Y15, Y14; \
	VPADDD   Y14, ACC, ACC

// refIdx holds 0…3 as qwords: the column index of each lane of a quad,
// against which the tail mask selects the cols mod 4 columns left.
DATA refIdx<>+0(SB)/8, $0
DATA refIdx<>+8(SB)/8, $1
DATA refIdx<>+16(SB)/8, $2
DATA refIdx<>+24(SB)/8, $3
GLOBL refIdx<>(SB), RODATA|NOPTR, $32

// func referenceAVX2(dst, w *uint64, src *uint16, prows, stride, cols, batch int, keep uint64)
//
// One row panel of prows ≤ 32 rows for every item: the item's counts are
// src[b·stride :][:prows] and its packed sums dst[b·cols :][:cols]. A word
// of dst is two little-endian dword lanes, N then P, so four packed sums
// fill one YMM register; a word of w is the same two dwords, each holding
// a row pair's two 16-bit magnitudes, and pair row k of the panel starts
// at w + 8·cols·k.
//
// The count pair of pair row k is the dword at 4k of the item's counts,
// which VPBROADCASTD reads in place: an odd prows' last pair reads the
// count after the panel, which meets pair row k's zero padding. The sums
// are carried in registers down the panel's pair rows in passes of 8, 4,
// 2 and 1 quads (four columns each): a pass of 8 repeats while 8 quads
// are left, then each narrower width runs at most once. Each pass starts
// from the sums in dst AND keep (Y12): zero for a batch's first panel,
// whose dst holds whatever it held, so nothing needs clearing first. The
// cols mod 4 columns left take one masked pass (Y13 selects them): masked
// lanes are neither loaded nor stored.
//
// R11 walks the items' counts and R12 their sums; R13 counts the items
// down, R14 is the count stride and R8 the sum and pair row stride, in
// bytes; R15 is cols/4 and CX the pair rows. In a pass DI walks the item's
// sums and SI the panel's first pair row, a pass at a time, with BX the
// quads left; AX walks the pass's pair words, R9 the count pairs, and R10
// counts the pair rows down.
TEXT ·referenceAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R12
	MOVQ src+16(FP), R11
	MOVQ stride+32(FP), R14
	SHLQ $1, R14
	MOVQ cols+40(FP), R8
	MOVQ R8, R15
	SHRQ $2, R15
	SHLQ $3, R8
	MOVQ batch+48(FP), R13
	MOVQ prows+24(FP), CX
	INCQ CX
	SHRQ $1, CX

	VPBROADCASTQ keep+56(FP), Y12
	VMOVDQU      refIdx<>+0(SB), Y11
	MOVQ         cols+40(FP), AX
	ANDQ         $3, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ     Y11, Y13, Y13

item:
	MOVQ R12, DI
	MOVQ w+8(FP), SI
	MOVQ R15, BX

ref8:
	CMPQ    BX, $8
	JB      ref4
	VPAND   (DI), Y12, Y0
	VPAND   32(DI), Y12, Y1
	VPAND   64(DI), Y12, Y2
	VPAND   96(DI), Y12, Y3
	VPAND   128(DI), Y12, Y4
	VPAND   160(DI), Y12, Y5
	VPAND   192(DI), Y12, Y6
	VPAND   224(DI), Y12, Y7
	MOVQ    SI, AX
	MOVQ    R11, R9
	MOVQ    CX, R10
	PCALIGN $64

row8:
	VPBROADCASTD (R9), Y15
	RPAIR(0, Y0)
	RPAIR(32, Y1)
	RPAIR(64, Y2)
	RPAIR(96, Y3)
	RPAIR(128, Y4)
	RPAIR(160, Y5)
	RPAIR(192, Y6)
	RPAIR(224, Y7)
	ADDQ         R8, AX
	ADDQ         $4, R9
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
	VPAND   (DI), Y12, Y0
	VPAND   32(DI), Y12, Y1
	VPAND   64(DI), Y12, Y2
	VPAND   96(DI), Y12, Y3
	MOVQ    SI, AX
	MOVQ    R11, R9
	MOVQ    CX, R10
	PCALIGN $64

row4:
	VPBROADCASTD (R9), Y15
	RPAIR(0, Y0)
	RPAIR(32, Y1)
	RPAIR(64, Y2)
	RPAIR(96, Y3)
	ADDQ         R8, AX
	ADDQ         $4, R9
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
	VPAND   (DI), Y12, Y0
	VPAND   32(DI), Y12, Y1
	MOVQ    SI, AX
	MOVQ    R11, R9
	MOVQ    CX, R10
	PCALIGN $64

row2:
	VPBROADCASTD (R9), Y15
	RPAIR(0, Y0)
	RPAIR(32, Y1)
	ADDQ         R8, AX
	ADDQ         $4, R9
	DECQ         R10
	JNZ          row2
	VMOVDQU      Y0, (DI)
	VMOVDQU      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $2, BX

ref1:
	TESTQ   BX, BX
	JZ      reftail
	VPAND   (DI), Y12, Y0
	MOVQ    SI, AX
	MOVQ    R11, R9
	MOVQ    CX, R10
	PCALIGN $64

row1:
	VPBROADCASTD (R9), Y15
	RPAIR(0, Y0)
	ADDQ         R8, AX
	ADDQ         $4, R9
	DECQ         R10
	JNZ          row1
	VMOVDQU      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI

reftail:
	MOVQ       cols+40(FP), DX
	TESTQ      $3, DX
	JZ         nextitem
	VPMASKMOVQ (DI), Y13, Y0
	VPAND      Y12, Y0, Y0
	MOVQ       SI, AX
	MOVQ       R11, R9
	MOVQ       CX, R10

rowtail:
	VPBROADCASTD (R9), Y15
	VPMASKMOVQ   (AX), Y13, Y14
	VPMADDWD     Y14, Y15, Y14
	VPADDD       Y14, Y0, Y0
	ADDQ         R8, AX
	ADDQ         $4, R9
	DECQ         R10
	JNZ          rowtail
	VPMASKMOVQ   Y0, Y13, (DI)

nextitem:
	ADDQ R14, R11
	ADDQ R8, R12
	DECQ R13
	JNZ  item

	VZEROUPPER
	RET

// func epilogueAVX2(dst *uint16, src *uint64, quads int, m, window uint64)
//
// The integral-η epilogue on 4·quads packed sums, four per pass: each word
// becomes clamp(⌊P/η⌋ − ⌊N/η⌋, Γ) as a 16-bit count. m = ⌈2^64/η⌉ is
// split into 32-bit halves, Y10 = m_lo and Y11 = m_hi (VPMULUDQ reads each
// qword's low dword alone, so N needs no masking before it multiplies),
// and for x < 2^32 the quotient ⌊x·m/2^64⌋ is the high dword of
// x·m_hi + ⌊x·m_lo/2^32⌋, which cannot wrap 64 bits. m = 0 stands for
// η = 1, whose quotients are P and N themselves: N is shifted up to P's
// dword. With both quotients in high dwords, below 2^32, the clamp is
// unsigned dword arithmetic: max(0, qP − qN) = qP − min(qP, qN), then the
// min with window (< 2^16) in Y8's high dwords. STORE4 narrows the four
// high dwords to words and stores them.
#define STORE4 \
	VPSHUFD   $0x0d, Y0, Y0; \
	VPERMQ    $0x08, Y0, Y0; \
	VPACKUSDW X0, X0, X0;    \
	VMOVQ     X0, (DI)

TEXT ·epilogueAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         quads+16(FP), CX
	MOVQ         m+24(FP), AX
	MOVQ         window+32(FP), DX
	SHLQ         $32, DX
	VMOVQ        DX, X8
	VPBROADCASTQ X8, Y8
	TESTQ        CX, CX
	JZ           epidone
	TESTQ        AX, AX
	JZ           epidiff
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	SHRQ         $32, AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11

epiquot:
	VMOVDQU  (SI), Y0
	VPSRLQ   $32, Y0, Y1
	VPMULUDQ Y10, Y1, Y2
	VPMULUDQ Y11, Y1, Y1
	VPSRLQ   $32, Y2, Y2
	VPADDQ   Y2, Y1, Y1
	VPMULUDQ Y10, Y0, Y2
	VPMULUDQ Y11, Y0, Y0
	VPSRLQ   $32, Y2, Y2
	VPADDQ   Y2, Y0, Y0
	VPMINUD  Y0, Y1, Y0
	VPSUBD   Y0, Y1, Y0
	VPMINUD  Y8, Y0, Y0
	STORE4
	ADDQ     $32, SI
	ADDQ     $8, DI
	DECQ     CX
	JNZ      epiquot
	JMP      epidone

epidiff:
	VMOVDQU (SI), Y1
	VPSLLQ  $32, Y1, Y0
	VPMINUD Y0, Y1, Y0
	VPSUBD  Y0, Y1, Y0
	VPMINUD Y8, Y0, Y0
	STORE4
	ADDQ    $32, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     epidiff

epidone:
	VZEROUPPER
	RET

// func quantizeAVX2(dst *uint16, rows *[]float64, nrows, quads, stride int, top float64)
//
// Quantize's AVX2 body over nrows rows: R8 walks the rows' slice headers
// (24 bytes apart), SI a row's features and DX its counts, each row's
// stride bytes after the last's (DI). Four features per pass, Y8 = Γ,
// Y9 = +0.0, Y10 = ½ and Y11 = 1.0: x = f·Γ; MAXPD with x as the first
// operand returns its second, +0, when x is NaN or either zero; MINPD with
// Γ clamps the top; t = trunc(x) as four dwords (exact below 2^31) and
// back as doubles; x − t ≥ ½ sets a qword to all ones, whose AND with 1.0
// added to t rounds it (exactly: t + 1 ≤ 2^14 + 1); the sum truncated
// again is narrowed to four words and stored.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         rows+8(FP), R8
	MOVQ         nrows+16(FP), R9
	MOVQ         quads+24(FP), R11
	MOVQ         stride+32(FP), R10
	VBROADCASTSD top+40(FP), Y8
	VXORPD       Y9, Y9, Y9
	MOVQ         $0x3fe0000000000000, AX
	VMOVQ        AX, X10
	VBROADCASTSD X10, Y10
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X11
	VBROADCASTSD X11, Y11
	TESTQ        R9, R9
	JZ           quantdone
	TESTQ        R11, R11
	JZ           quantdone

quantrow:
	MOVQ (R8), SI
	MOVQ DI, DX
	MOVQ R11, CX

quantloop:
	VMULPD      (SI), Y8, Y0
	VMAXPD      Y9, Y0, Y0
	VMINPD      Y8, Y0, Y0
	VCVTTPD2DQY Y0, X1
	VCVTDQ2PD   X1, Y2
	VSUBPD      Y2, Y0, Y3
	VCMPPD      $0x0d, Y10, Y3, Y3
	VANDPD      Y11, Y3, Y3
	VADDPD      Y3, Y2, Y2
	VCVTTPD2DQY Y2, X1
	VPACKUSDW   X1, X1, X1
	VMOVQ       X1, (DX)
	ADDQ        $32, SI
	ADDQ        $8, DX
	DECQ        CX
	JNZ         quantloop
	ADDQ        $24, R8
	ADDQ        R10, DI
	DECQ        R9
	JNZ         quantrow

quantdone:
	VZEROUPPER
	RET
