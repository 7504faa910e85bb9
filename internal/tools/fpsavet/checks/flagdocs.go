package checks

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// flagDecl matches flag declarations like flag.String("model", …),
// flag.IntVar(&v, "model", …) and flag.Int64("seed", …), on the package or
// on a flag set named fs (a binary whose main is a testable run(args)). The
// first quoted argument is the flag name — except NewFlagSet's, which names
// the program.
var flagDecl = regexp.MustCompile(`\b(?:flag|fs)\.([A-Za-z0-9]+)\((?:&[A-Za-z0-9_.]+,\s*)?"([^"]+)"`)

// flagRow matches a flag-table row: | `-name` | meaning |.
var flagRow = regexp.MustCompile("^\\|\\s*`-([^`]+)`\\s*\\|")

// CheckFlagDocs is docscheck's flag-table pass, migrated into the suite,
// and it checks both directions: every CLI flag declared by a binary under
// cmd/ must have a row in the README's flag tables, attributed to that
// binary, and every row must document a flag its binary declares. A table
// documents the binary named most recently above it; a Markdown heading
// ends that attribution, so the rows of a section whose binary was
// deleted belong to none. It returns one message per undocumented flag and
// per row without a declaration; a broken precondition (no binaries, no
// rows — the vacuous-pass cases) is an error.
func CheckFlagDocs(repoRoot string) ([]string, error) {
	cmdDir := filepath.Join(repoRoot, "cmd")
	readmePath := filepath.Join(repoRoot, "README.md")
	mains, err := filepath.Glob(filepath.Join(cmdDir, "*", "main.go"))
	if err != nil {
		return nil, err
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no binaries found under %s", cmdDir)
	}
	sort.Strings(mains)
	binaries := make([]string, len(mains))
	for i, path := range mains {
		binaries[i] = filepath.Base(filepath.Dir(path))
	}

	readme, err := os.ReadFile(readmePath)
	if err != nil {
		return nil, err
	}
	// Attribute each flag row to the binary named most recently before
	// it: prose like "go run ./cmd/fpsa-serve …" or a "## fpsa-compile"
	// heading switches the current binary, and its flag table follows.
	type row struct {
		binary, flag string
		line         int
	}
	var rows []row
	documented := make(map[string]map[string]bool, len(binaries))
	for _, b := range binaries {
		documented[b] = make(map[string]bool)
	}
	current := ""
	for i, line := range strings.Split(string(readme), "\n") {
		if m := flagRow.FindStringSubmatch(line); m != nil {
			rows = append(rows, row{current, m[1], i + 1})
			if current != "" {
				documented[current][m[1]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			current = ""
		}
		for _, b := range binaries {
			if idx := strings.LastIndex(line, b); idx >= 0 {
				if current == "" || idx >= strings.LastIndex(line, current) {
					current = b
				}
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s contains no flag-table rows (| `-flag` | …); refusing to pass vacuously", readmePath)
	}

	var problems []string
	declared := make(map[string]map[string]bool, len(binaries))
	total := 0
	for i, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		declared[binaries[i]] = make(map[string]bool)
		for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
			if m[1] == "NewFlagSet" {
				continue
			}
			total++
			declared[binaries[i]][m[2]] = true
			if !documented[binaries[i]][m[2]] {
				problems = append(problems,
					fmt.Sprintf("%s: flag -%s of %s has no row in README.md's flag tables", path, m[2], binaries[i]))
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("no flag declarations found under %s; the matcher may be stale", cmdDir)
	}
	for _, r := range rows {
		switch {
		case r.binary == "":
			problems = append(problems,
				fmt.Sprintf("%s:%d: row -%s documents a flag of no binary under cmd/", readmePath, r.line, r.flag))
		case !declared[r.binary][r.flag]:
			problems = append(problems,
				fmt.Sprintf("%s:%d: row -%s documents a flag %s does not declare", readmePath, r.line, r.flag, r.binary))
		}
	}
	return problems, nil
}
