// Package hostcpu answers, once per process, which vector bodies the CPU
// can run. Every package with an AVX2 body picks it from here, so one
// CPUID check decides for all of them.
package hostcpu

// AVX2 reports whether the AVX2 bodies can run: the CPU has AVX
// (CPUID.1:ECX bit 28), AVX2 (CPUID.7:EBX bit 5) and BMI1 (CPUID.7:EBX bit
// 3, for xbar's lane walk's BLSR), and the OS saves the XMM and YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE, then XCR0 bits 1
// and 2). The lane walk's TZCNT needs no bit of its own: it only ever scans
// a nonzero word, where a CPU without BMI1 runs it as BSF with the same
// result.
var AVX2 = detectAVX2()

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
	const bmi1, avx2 = 1 << 3, 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(bmi1|avx2) == bmi1|avx2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)
