package checks_test

import (
	"testing"

	"fpsa/internal/tools/fpsavet/analysis"
	"fpsa/internal/tools/fpsavet/checks"
)

func TestDeterminism(t *testing.T) {
	analysis.RunTest(t, "testdata/determinism", checks.Determinism,
		"fpsa/internal/synth", "fpsa/internal/device", "fpsa/internal/other")
}

func TestCtxflow(t *testing.T) {
	analysis.RunTest(t, "testdata/ctxflow", checks.Ctxflow,
		"fpsa/internal/lib", "fpsa/cmd/tool")
}

func TestErrwrap(t *testing.T) {
	analysis.RunTest(t, "testdata/errwrap", checks.Errwrap,
		"fpsa", "fpsa/internal/lib")
}
