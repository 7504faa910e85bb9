//go:build !amd64

// Package hostcpu answers, once per process, which vector bodies the CPU
// can run. Every package with an AVX2 body picks it from here, so one
// CPUID check decides for all of them.
package hostcpu

// AVX2 is false off amd64: every package runs its portable bodies.
const AVX2 = false
