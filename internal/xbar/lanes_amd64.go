package xbar

// hasAVX2 reports whether the walks, the reference kernel and Quantize can
// run their AVX2 bodies: the CPU has AVX and AVX2 (CPUID.1:ECX bit 28, CPUID.7:EBX
// bit 5) and the OS saves the XMM and YMM registers across context switches
// (CPUID.1:ECX.OSXSAVE, then XCR0 bits 1 and 2).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// lanesAVX2 runs grouping, fill, accumulate and walk (see walkLanes) for
// one item on lane rows of half words per polarity: 2 (a half-block row,
// both polarities in one 256-bit block) or 4·blocks. lanes is laneG and
// counts the item's nrows input counts; rows is countG and present its
// count set, both zero on entry and left zero on return; trains and silent
// are the window's uniformTrains and silentTrains; drv is window lane rows
// of scratch; fired receives one output count per positive lane, 4·half of
// them. Lane rows are 16·half bytes apart, and lanes, rows and drv are
// 32-byte aligned.
//
//go:noescape
func lanesAVX2(drv, rows, lanes *uint64, counts *int, present, trains, silent *uint64, fired *uint16, nrows, window, half int, eta uint64)

// floatWalkAVX2 runs accumulate and walk (see walkFloatAVX2) for one item
// on blocks 4-column blocks per polarity. rows is floatG and counts the
// item's nrows input counts; trains is the window's uniformTrains; drv is
// window float lane rows and live Lanes(window) words of scratch, both zero
// on entry and left zero on return; fired receives one output count per
// lane, 4·blocks of them. Lane rows are 64·blocks bytes apart, and rows and
// drv are 32-byte aligned.
//
//go:noescape
func floatWalkAVX2(drv, rows *float64, counts *int, trains, live *uint64, fired *int64, nrows, window, blocks int, eta float64)

// referenceAVX2 is the reference kernel's AVX2 body (referenceSums) for
// one row panel of prows ≤ rowBlock rows and every item of a batch: for
// b < batch and j < cols it adds Σ_r clamp(x[r], Γ)·w[r][j] into
// dst[b·cols+j], each 64-bit word as two 32-bit lanes (N, then P), where x
// is the item's counts src[b·stride :][:prows], clamped to [0, window]
// in place, and w is the panel's pair rows from w, two rows per word as
// 16-bit halves (see Crossbar.pairW), 8·cols bytes apart.
//
//go:noescape
func referenceAVX2(dst *int, w *uint64, src *int, prows, stride, cols, batch, window int)

// epilogueAVX2 is integerEpilogue's AVX2 body on 4·quads words of dst,
// four per instruction: m is ⌈2^64/η⌉, or 0 for η = 1, and window is Γ
// capped at 2^32−1 (no difference of quotients reaches it).
//
//go:noescape
func epilogueAVX2(dst *int, quads int, m, window uint64)

// quantizeAVX2 is Quantize's AVX2 body on 4·quads features: dst[i] =
// round(src[i]·top) clamped to [0, top], for 0 ≤ top < 2^31.
//
//go:noescape
func quantizeAVX2(dst *int, src *float64, quads int, top float64)
