package fpsa

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citationRE matches a citation of a doc section by name, as code comments
// and the docs write them: `name.md, "Title"`, `name.md ("Title")` or
// `name.md "Title"` with the name in capitals, optionally under a docs/
// prefix.
var citationRE = regexp.MustCompile(`\b([A-Z][A-Z_]*)\.md[,\s(]\s*\(?\s*"([^"]+)"`)

// lineBreakRE joins a text's lines into one: a newline, the indentation
// after it and a // comment marker become one space, so a citation whose
// title wraps onto a continuation line reads as one string.
var lineBreakRE = regexp.MustCompile(`\s*\n\s*(?://\s*)?`)

var boldRE = regexp.MustCompile(`\*\*([^*]+)\*\*`)

// TestDocCitationsResolve checks that every section a code comment or doc
// cites by name still exists: the cited title must be a prefix of a
// Markdown heading or of a **bold lead-in** in that doc under docs/. It reads every
// .go file, README.md and docs/*.md; ROADMAP.md and CHANGES.md are records
// of what was, and may name sections that have since gone.
func TestDocCitationsResolve(t *testing.T) {
	var sources []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(append(sources, "README.md"), docs...)

	titles := map[string][]string{} // doc name → its headings and bold lead-ins
	sectionsOf := func(name string) []string {
		if s, ok := titles[name]; ok {
			return s
		}
		raw, err := os.ReadFile(filepath.Join("docs", name+".md"))
		if err != nil {
			titles[name] = nil
			return nil
		}
		var s []string
		for _, line := range strings.Split(string(raw), "\n") {
			if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
				s = append(s, strings.TrimSpace(h))
			}
		}
		for _, m := range boldRE.FindAllStringSubmatch(lineBreakRE.ReplaceAllString(string(raw), " "), -1) {
			s = append(s, m[1])
		}
		titles[name] = s
		return s
	}

	cited := 0
	for _, path := range sources {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := lineBreakRE.ReplaceAllString(string(raw), " ")
		for _, m := range citationRE.FindAllStringSubmatch(text, -1) {
			name, title := m[1], m[2]
			cited++
			sections := sectionsOf(name)
			if sections == nil {
				t.Errorf("%s cites docs/%s.md, %q: no such doc", path, name, title)
				continue
			}
			found := false
			for _, s := range sections {
				if strings.HasPrefix(s, title) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites docs/%s.md, %q: no heading or bold lead-in starts so", path, name, title)
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no doc citations; the pattern no longer matches how they are written")
	}
	t.Logf("%d citations resolve", cited)
}
