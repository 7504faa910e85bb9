package checks_test

import (
	"slices"
	"strings"
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

// TestFlagDocs runs the flag-table pass over a golden tree with one fault
// of each kind: a declared flag without a row, a row whose binary no
// longer declares its flag, and a deleted binary's section left behind.
func TestFlagDocs(t *testing.T) {
	got, err := checks.CheckFlagDocs("testdata/flagdocs")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/flagdocs/cmd/alpha/main.go: flag -quiet of alpha has no row in README.md's flag tables",
		"testdata/flagdocs/README.md:11: row -loud documents a flag alpha does not declare",
		"testdata/flagdocs/README.md:19: row -exp documents a flag of no binary under cmd/",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
