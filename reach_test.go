package fpsa

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const architecturePath = "docs/ARCHITECTURE.md"

// The reachability block in docs/ARCHITECTURE.md sits between these
// markers; TestUnreachedFunctions renders it and -update rewrites it.
const (
	reachBegin = "<!-- reach:begin -->"
	reachEnd   = "<!-- reach:end -->"
)

// reachReason is one row of the reachability table: why the functions it
// selects stay although no binary calls them. A selector is a directory
// ("internal/experiments/"), a file ("internal/xbar/lanes_other.go"), one
// function by its short symbol ("xbar.(*Crossbar).SimulateTrains") or,
// ending in a dot, every method of one type ("spike.(*Neuron).").
type reachReason struct {
	reason    string
	selectors []string
}

// reachReasons is the closed list of reasons an unreached function may
// stay for. A function no binary reaches and no selector names fails the
// test; so does a selector that names no unreached function.
var reachReasons = []reachReason{
	{"the PE at train level (§4.2): the kernel oracle the spiking kernel's tests compare against, and the CLB stepping that shows `CountBlocks`' controller counts mod Γ", []string{
		"spike.(*Neuron).", "spike.(*RCNeuron).", "spike.DefaultRCNeuron", "spike.NewTrain", "spike.Train.", "spike.UniformTrain",
		"spike.(*Subtracter).", "spike.SubtractTrains", "clb.(*LUT).", "clb.(*Controller).",
		"xbar.(*Crossbar).SimulateTrains", "xbar.(*Crossbar).SimulateCountsBatchDense",
	}},
	{"a paper table, figure or study `TestFidelity` computes (`internal/experiments`), or a helper only those reach", []string{
		"internal/experiments/", "cgraph.(*Graph).Summary",
		"device.Params.VMMLatencyNS", "device.Params.PEAreaUM2", "device.Params.ComputationalDensityOPSmm2", "prime.ComputationalDensityOPSmm2",
		"fabric.Chip.RoutingAreaUM2", "mapper.BuildNetlist", "place.Anneal",
		"device.CellSpec.NormalizedDeviation", "device.NewSplice", "device.Splice.", "device.Add.",
		"trainer.(*MLP).Clone", "trainer.ProgramNetwork", "trainer.VariationStudy", "trainer.QuantizationOnly",
	}},
	{"a fixture or reference that tests of other code build with or compare against", []string{
		"device.FaultMap.Validate", "coreop.(*Graph).GroupsByKind",
		"netlist.(*Netlist).AddNet", "netlist.(*Netlist).AreaUM2", "place.Fixed", "shard.(*Plan).Chips", "shard.(*Plan).ShardOf",
		"xbar.(*Crossbar).Rows", "xbar.(*Crossbar).Cols", "xbar.(*Crossbar).Eta", "xbar.(*Crossbar).Window", "xbar.(*Crossbar).SetEta",
	}},
	{"an option the tests need, its cost measured: with `WithAutotuneRefine` fixed at 2, `go test -run Autotune .` takes 17 s, not 2.4 s, and `TestAutotuneRefineSharesCache` fails", []string{
		"fpsa.WithAutotuneRefine",
	}},
	{"a portable stub of an AVX2 body (`xbar/lanes_other.go`, `trainer/step_other.go`, outside the amd64 build)", []string{
		"internal/xbar/lanes_other.go", "internal/trainer/step_other.go",
	}},
	{"the analyzer test harness (`fpsavet/analysis/testutil.go`), which `checks`' tests load their fixtures through", []string{
		"internal/tools/fpsavet/analysis/testutil.go",
	}},
}

// mainBinaries are the main packages whose binaries define "reached": the
// commands, the benchmark and the lint tool.
var mainBinaries = []string{"./cmd/...", "./bench", "./internal/tools/fpsavet"}

// reachFunc is one non-test function declaration with a body.
type reachFunc struct {
	file   string // slash path relative to the module root
	symbol string // linker symbol, type parameters stripped
	short  string // symbol with the package path cut to its last element
	lines  int
	binary string // for a main package, the one binary that can reach it
}

// TestUnreachedFunctions builds every main package without inlining in
// this module (-l: a function reached only by being inlined would have no
// symbol), dumps the binaries' symbols with go tool nm, and looks up every
// non-test function outside bench/ and testdata/ by its linker symbol.
// Each function found in no binary must be selected by a reason in
// reachReasons. The table in docs/ARCHITECTURE.md is rendered from the
// result and compared with the committed one (-update rewrites it).
func TestUnreachedFunctions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("GOARCH=%s: the table is measured on amd64, where the AVX2 bodies are built and their portable stubs are not", runtime.GOARCH)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to build the binaries with")
	}
	dir := t.TempDir()
	args := append([]string{"build", "-gcflags=fpsa/...=-l", "-o", dir + string(filepath.Separator)}, mainBinaries...)
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	symbols := map[string]map[string]bool{} // binary → its function symbols
	for _, b := range bins {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		symbols[b.Name()] = nmSymbols(out)
	}

	funcs, total := reachDecls(t)
	var unreached []reachFunc
	for _, f := range funcs {
		reached := false
		for bin, syms := range symbols {
			if (f.binary == "" || f.binary == bin) && syms[f.symbol] {
				reached = true
				break
			}
		}
		if !reached {
			unreached = append(unreached, f)
		}
	}

	rows := make([][]reachFunc, len(reachReasons))
	used := map[string]bool{}
	for _, f := range unreached {
		i, sel := reasonFor(f)
		if i < 0 {
			t.Errorf("%s (%s, %d lines) is reached by no binary and has no reason in reachReasons: give it a caller that matters, delete it, or add it to a reason", f.short, f.file, f.lines)
			continue
		}
		rows[i] = append(rows[i], f)
		used[sel] = true
	}
	for _, r := range reachReasons {
		for _, sel := range r.selectors {
			if !used[sel] {
				t.Errorf("reason %q: selector %q names no unreached function; delete it", r.reason, sel)
			}
		}
	}
	for i, row := range rows {
		for _, f := range row {
			t.Logf("row %d: %s (%s, %d lines)", i+1, f.short, f.file, f.lines)
		}
	}

	got := renderReach(rows, total)
	raw, err := os.ReadFile(architecturePath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	b, e := strings.Index(doc, reachBegin), strings.Index(doc, reachEnd)
	if b < 0 || e < b {
		t.Fatalf("%s has no %s … %s block", architecturePath, reachBegin, reachEnd)
	}
	want := doc[b : e+len(reachEnd)]
	if got == want {
		return
	}
	if *update {
		if err := os.WriteFile(architecturePath, []byte(doc[:b]+got+doc[e+len(reachEnd):]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Errorf("%s's reachability block is stale; go test -run TestUnreachedFunctions -update . rewrites it\n committed:\n%s\n computed:\n%s", architecturePath, want, got)
}

// nmSymbols returns the names go tool nm prints for a binary, type
// parameters stripped.
func nmSymbols(out []byte) map[string]bool {
	syms := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		syms[stripTypeParams(strings.Join(fields[2:], " "))] = true
	}
	return syms
}

// stripTypeParams drops every bracketed part of a symbol: F[go.shape.int]
// and (*T[...]).M name the generic function F and method T.M.
func stripTypeParams(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// reachDecls parses every non-test Go file outside bench/ and testdata/
// and returns its function declarations that have a Go body, with the
// files' total line count.
func reachDecls(t *testing.T) ([]reachFunc, int) {
	t.Helper()
	var funcs []reachFunc
	total := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		pkgDir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := "fpsa"
		if pkgDir != "." {
			pkgPath += "/" + pkgDir
		}
		binary := ""
		if f.Name.Name == "main" {
			pkgPath, binary = "main", filepath.Base(pkgDir)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			funcs = append(funcs, reachFunc{
				file:   rel,
				symbol: pkgPath + "." + name,
				short:  pkgPath[strings.LastIndex(pkgPath, "/")+1:] + "." + name,
				lines:  fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1,
				binary: binary,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, total
}

// recvName renders a receiver type as the linker names it: T or (*T),
// type parameters dropped.
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// reasonFor returns the index of the first reason with a selector naming
// f, and that selector; -1 if none does.
func reasonFor(f reachFunc) (int, string) {
	for i, r := range reachReasons {
		for _, sel := range r.selectors {
			switch {
			case strings.HasSuffix(sel, "/") && strings.HasPrefix(f.file, sel),
				strings.HasSuffix(sel, ".go") && f.file == sel,
				strings.HasSuffix(sel, ".") && strings.HasPrefix(f.short, sel),
				sel == f.short:
				return i, sel
			}
		}
	}
	return -1, ""
}

// renderReach renders the reachability block: one row per reason, the
// total, and the non-test line count it is a share of.
func renderReach(rows [][]reachFunc, total int) string {
	var b strings.Builder
	b.WriteString(reachBegin + "\n")
	b.WriteString("| unreached non-test functions, by the reason they stay | functions | lines |\n| --- | ---: | ---: |\n")
	fns, lines := 0, 0
	for i, r := range reachReasons {
		n := 0
		for _, f := range rows[i] {
			n += f.lines
		}
		fns, lines = fns+len(rows[i]), lines+n
		fmt.Fprintf(&b, "| %s | %d | %s |\n", r.reason, len(rows[i]), thousands(n))
	}
	fmt.Fprintf(&b, "| **total** | **%d** | **%s** |\n\n", fns, thousands(lines))
	fmt.Fprintf(&b, "Non-test Go outside `bench/` and `testdata/`: %s lines.\n", thousands(total))
	b.WriteString(reachEnd)
	return b.String()
}

// thousands formats n with a comma between thousands: 16888 → "16,888".
func thousands(n int) string {
	s := fmt.Sprint(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
