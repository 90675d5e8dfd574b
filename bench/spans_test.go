package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40, not 30+25.
		{ID: 2, Name: "a.x", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "a.y", Start: 25, End: 50, Parent: 1},
		// A zero-length child covers nothing.
		{ID: 4, Name: "b.z", Start: 60, End: 60, Parent: 1},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Name: "c.w", Start: 90, End: 120, Parent: 1},
		// A grandchild counts against its parent, not the root.
		{ID: 6, Name: "d.v", Start: 12, End: 20, Parent: 2},
		// A zero-length span has zero self time.
		{ID: 7, Name: "e.u", Start: 70, End: 70, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 8, 25, 0, 30, 8, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestSelfTimeNestedChildrenSumToRoot(t *testing.T) {
	// Properly nested spans: the self times of a subtree add up to the
	// root's duration, which is what lets layer self times reconcile with
	// the measured total.
	spans := []span{
		{ID: 1, Name: "decompose", Start: 0, End: 1000},
		{ID: 2, Name: "scenario", Start: 5, End: 600, Parent: 1},
		{ID: 3, Name: "platform.build", Start: 10, End: 50, Parent: 2},
		{ID: 4, Name: "replay.run", Start: 50, End: 590, Parent: 2},
		{ID: 5, Name: "scenario", Start: 600, End: 990, Parent: 1},
		{ID: 6, Name: "replay.run", Start: 610, End: 980, Parent: 5},
		{ID: 7, Name: "elsewhere", Start: 0, End: 5000},
	}
	byName := selfByName(spans, 1)
	var sum int64
	for _, v := range byName {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000: %v", sum, byName)
	}
	if byName["replay.run"] != 540+370 || byName["scenario"] != 15+20 {
		t.Fatalf("self times by name = %v", byName)
	}
	if _, ok := byName["elsewhere"]; ok {
		t.Fatalf("a span outside the subtree was counted: %v", byName)
	}
}

func TestRecorderNestsAndLayers(t *testing.T) {
	r := newRecorder()
	root := r.begin("pass", 0)
	d, err := r.do("replay.run", root, func(id int) error {
		r.end(r.begin("trace.decode", id))
		return nil
	})
	r.end(root)
	if err != nil || d < 0 {
		t.Fatalf("do: %v, %v", d, err)
	}
	if len(r.spans) != 3 || r.spans[1].Parent != root || r.spans[2].Parent != 2 {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if r.spans[0].layer() != "bench" || r.spans[1].layer() != "replay" {
		t.Errorf("layers = %q, %q", r.spans[0].layer(), r.spans[1].layer())
	}
}
