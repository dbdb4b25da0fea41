package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a: covered once
		{name: "c", start: 90, end: 120, parent: 0}, // clipped to the root's end
		{name: "a.1", start: 12, end: 18, parent: 1},
		{name: "other", start: 0, end: 1000, parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 1000}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	layers := layerSelf(append(spans, span{name: "a", start: 200, end: 205, parent: -1}))
	if layers["a"] != 14+5 {
		t.Errorf("layer self of a = %d, want 19", layers["a"])
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if i := off.begin("x", -1, 1); i != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", i)
	}
	off.end(-1)

	tr := newTracer()
	root := tr.begin("query", -1, 7)
	kid := tr.begin("vm.first_item", root, 7)
	tr.end(kid)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
}
