package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // 30 covered
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: adds 20
		{ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out: adds 10
		{ID: 5, Parent: 2, Start: 15, End: 25},  // a grandchild counts against 2, not 1
		{ID: 6, Start: 200, End: 230},           // no children: all self
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if ns, items, n := sumByName([]span{{Name: "k", Start: 0, End: 5, Items: 2}, {Name: "k", Start: 9, End: 10, Items: 3}, {Name: "x", End: 99}}, "k"); ns != 6 || items != 5 || n != 2 {
		t.Errorf("sumByName = %d ns, %d items, %d spans; want 6, 5, 2", ns, items, n)
	}
}

func TestTracerKeepsSpansInMemoryAndWritesThemOut(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 0, 0, 0)) // a nil tracer records nothing and does not panic
	if off.count() != 0 || off.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.begin("root", 0, 1, 0)
	kid := tr.begin("kid", root, 1, 16)
	tr.end(kid)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) != 2 || file.Spans[1].Parent != root || file.Spans[1].Items != 16 || file.Spans[1].End < file.Spans[1].Start {
		t.Errorf("span file holds %+v", file.Spans)
	}
}
