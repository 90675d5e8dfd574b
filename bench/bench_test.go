package main

import (
	"context"
	"io"
	"regexp"
	"sort"
	"testing"
)

// TestSmoke runs every workload end to end and traced at the smoke scale
// (LU and CG class S on 4 ranks, a 1024-rank synthetic world, 20 daemon
// requests) with every output check on, and holds the printed metrics to
// the names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tisweep and tiserved")
	}
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup("..", t.TempDir(), scales["smoke"], goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := readGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if decl.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, decl.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), runLimit)
			defer cancel()
			// A zero measuring time still runs one repetition and one pass.
			r, err := measureE2E(ctx, e, w, 0, g, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, "end to end", r, decl.EndToEnd)
			if r, err = measureTraced(ctx, e, w, 0, "", g, io.Discard); err != nil {
				t.Fatal(err)
			}
			checkRun(t, "traced", r, decl.PerLayer)
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkRun(t *testing.T, what string, r *run, want []declaredMetric) {
	t.Helper()
	if len(r.problems) > 0 || r.res.Failed != 0 || r.res.Attempted == 0 {
		t.Errorf("%s: %d of %d failed: %v", what, r.res.Failed, r.res.Attempted, r.problems)
	}
	var got, decl []string
	for name, m := range r.res.Metrics {
		got = append(got, name+" "+m.Unit)
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, name)
		}
	}
	for _, m := range want {
		decl = append(decl, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(decl)
	if len(got) != len(decl) {
		t.Fatalf("%s: printed metrics %v, BENCHMARK.json declares %v", what, got, decl)
	}
	for i := range got {
		if got[i] != decl[i] {
			t.Errorf("%s: printed %q, BENCHMARK.json declares %q", what, got[i], decl[i])
		}
	}
}

func TestSeedsChangeInputsNotWork(t *testing.T) {
	a, b := newRNG(1, "lu-sweep"), newRNG(2, "lu-sweep")
	x, y := a.near(2), b.near(2)
	if x == y {
		t.Errorf("seeds 1 and 2 drew the same factor %g", x)
	}
	for _, v := range []float64{x, y} {
		if v < 1.9 || v > 2.1 {
			t.Errorf("factor %g strays more than 5%% from its anchor 2", v)
		}
	}
	if newRNG(7, "s").next() != newRNG(7, "s").next() {
		t.Error("one seed drew two sequences")
	}
}
