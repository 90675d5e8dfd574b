package sweep

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/synth"
)

// luModel fits the synthetic model of one recorded LU run.
func luModel(t testing.TB, class npb.Class, procs int) *synth.Model {
	t.Helper()
	perRank, err := npb.RecordAll("lu", class.Name, procs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := synth.Fit(perRank)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorldAxisExpansion(t *testing.T) {
	g := Grid{World: []int{0, 32}, BandwidthScale: []float64{1, 2}}
	scs := g.Expand()
	if len(scs) != 4 || len(scs) != g.Size() {
		t.Fatalf("expanded %d scenarios, Size()=%d, want 4", len(scs), g.Size())
	}
	// World is the outermost axis: recorded cells first.
	if scs[0].World != 0 || scs[1].World != 0 || scs[2].World != 32 || scs[3].World != 32 {
		t.Fatalf("unexpected world order: %d %d %d %d",
			scs[0].World, scs[1].World, scs[2].World, scs[3].World)
	}
	if name := scs[2].Name(); !strings.Contains(name, "world=32") {
		t.Fatalf("synthetic scenario name %q lacks world=32", name)
	}
	if name := scs[0].Name(); strings.Contains(name, "world=") {
		t.Fatalf("recorded scenario name %q must not carry a world suffix", name)
	}
}

func TestParseWorldList(t *testing.T) {
	ws, err := ParseWorldList(" 0, 1024,16384 ")
	if err != nil || len(ws) != 3 || ws[0] != 0 || ws[2] != 16384 {
		t.Fatalf("ParseWorldList = %v, %v", ws, err)
	}
	if _, err := ParseWorldList("1024,-1"); err == nil {
		t.Fatal("negative world must fail")
	}
	if ws, err := ParseWorldList(""); err != nil || ws != nil {
		t.Fatalf("empty world list = %v, %v", ws, err)
	}
}

// TestSweepWorldAxis replays an all-synthetic grid — no trace set at all —
// and checks every cell completed on its own world size.
func TestSweepWorldAxis(t *testing.T) {
	m := luModel(t, npb.ClassS, 16)
	worlds := []int{12, 24}
	res, err := Run(context.Background(), &Config{
		Platform:  platform.BordereauWithCores(24, 1),
		Grid:      Grid{World: worlds, BandwidthScale: []float64{0.5, 1}},
		Synth:     m,
		SynthSpec: synth.Spec{Law: synth.StrongLaw},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(res.Scenarios))
	}
	actionsBy := map[int]int64{}
	for _, sc := range res.Scenarios {
		if sc.Err != "" {
			t.Fatalf("scenario %q failed: %s", sc.Name, sc.Err)
		}
		if sc.SimulatedTime <= 0 || sc.Actions == 0 {
			t.Fatalf("scenario %q: time %g, actions %d", sc.Name, sc.SimulatedTime, sc.Actions)
		}
		if prev, seen := actionsBy[sc.World]; seen && prev != sc.Actions {
			t.Fatalf("world %d replayed %d then %d actions", sc.World, prev, sc.Actions)
		}
		actionsBy[sc.World] = sc.Actions
	}
	if actionsBy[12] >= actionsBy[24] {
		t.Fatalf("larger world must replay more actions: %d@12 vs %d@24",
			actionsBy[12], actionsBy[24])
	}
}

// TestSweepWorldMixed mixes the recorded world (entry 0) with a synthetic
// one in a single grid: the recorded cell must replay exactly the recorded
// trace set's actions.
func TestSweepWorldMixed(t *testing.T) {
	const procs = 8
	ts := luTraces(t, npb.ClassS, procs)
	m := luModel(t, npb.ClassS, procs)
	res, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid:     Grid{World: []int{0, procs}},
		Traces:   ts,
		Synth:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(res.Scenarios))
	}
	rec, syn := res.Scenarios[0], res.Scenarios[1]
	if rec.Err != "" || syn.Err != "" {
		t.Fatalf("errs: %q, %q", rec.Err, syn.Err)
	}
	// The fitted model regenerated at the recorded size is exact (the
	// differential contract of internal/synth), so both cells replay the
	// same action count and predict the same makespan.
	if rec.Actions != syn.Actions {
		t.Fatalf("recorded cell replayed %d actions, synthetic twin %d", rec.Actions, syn.Actions)
	}
	if rec.SimulatedTime != syn.SimulatedTime {
		t.Fatalf("recorded makespan %g != synthetic twin %g", rec.SimulatedTime, syn.SimulatedTime)
	}
}

// TestSweepWorldDeterministicAcrossWorkers extends the engine's byte-identity
// guarantee to synthetic cells: the same -world grid produces byte-identical
// timed traces at one worker and at NumCPU workers. The race job replays this
// under -race, which doubles as the shared-generator data-race check.
func TestSweepWorldDeterministicAcrossWorkers(t *testing.T) {
	m := luModel(t, npb.ClassS, 16)
	grid := Grid{World: []int{8, 12}, PowerScale: []float64{1, 2}}
	run := func(workers int) *Result {
		res, err := Run(context.Background(), &Config{
			Platform:  platform.BordereauWithCores(12, 1),
			Grid:      grid,
			Synth:     m,
			SynthSpec: synth.Spec{Seed: 7, Jitter: 0.05},
			Workers:   workers,
			Timed:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	parallel := run(workers)
	for i := range serial.Scenarios {
		s, p := &serial.Scenarios[i], &parallel.Scenarios[i]
		if s.Err != "" || p.Err != "" {
			t.Fatalf("scenario %d errs: %q, %q", i, s.Err, p.Err)
		}
		if s.SimulatedTime != p.SimulatedTime {
			t.Fatalf("scenario %q: %g serial vs %g parallel", s.Name, s.SimulatedTime, p.SimulatedTime)
		}
		if !bytes.Equal(s.TimedTrace, p.TimedTrace) {
			t.Fatalf("scenario %q: timed traces differ across worker counts", s.Name)
		}
	}
}

// TestGridCheckInputs walks the input rules every front end shares over
// world axis x traces x model: a positive world needs a model, a model
// needs a positive world, and recorded cells need traces.
func TestGridCheckInputs(t *testing.T) {
	cases := []struct {
		world             []int
		traces, model, ok bool
		want              string
	}{
		{nil, true, false, true, ""},
		{nil, false, false, false, "need a trace set"},
		{nil, true, true, false, "needs a positive world"},
		{[]int{0}, true, false, true, ""},
		{[]int{0}, true, true, false, "needs a positive world"},
		{[]int{0}, false, false, false, "need a trace set"},
		{[]int{8}, false, true, true, ""},
		{[]int{8}, true, true, true, ""},
		{[]int{8}, true, false, false, "world 8 needs a fitted model"},
		{[]int{0, 8}, true, true, true, ""},
		{[]int{0, 8}, false, true, false, "need a trace set"},
		{[]int{0, 8}, true, false, false, "world 8 needs a fitted model"},
	}
	for _, c := range cases {
		err := Grid{World: c.world}.CheckInputs(c.traces, c.model)
		if c.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("world %v traces=%t model=%t: err %v, want ok=%t %q",
				c.world, c.traces, c.model, err, c.ok, c.want)
		}
	}
	if n := (Grid{World: []int{0, 24, 12}}).MaxWorld(); n != 24 {
		t.Errorf("MaxWorld = %d, want 24", n)
	}
	if n := (Grid{}).MaxWorld(); n != 0 {
		t.Errorf("MaxWorld of a recorded grid = %d, want 0", n)
	}
}

func TestSweepWorldErrors(t *testing.T) {
	// A synthetic world without a fitted model is a configuration error.
	_, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(8, 1),
		Grid:     Grid{World: []int{8}},
	})
	if err == nil || !strings.Contains(err.Error(), "fitted model") {
		t.Fatalf("world without Synth: %v", err)
	}
	// A recorded cell without traces still fails like before.
	_, err = Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(8, 1),
		Grid:     Grid{},
	})
	if err == nil || !strings.Contains(err.Error(), "need a trace set") {
		t.Fatalf("recorded grid without traces: %v", err)
	}
	// A bad synthetic spec (grid not tiling a world) surfaces as a sweep
	// error naming the world.
	m := luModel(t, npb.ClassS, 16)
	_, err = Run(context.Background(), &Config{
		Platform:  platform.BordereauWithCores(8, 1),
		Grid:      Grid{World: []int{7}},
		Synth:     m,
		SynthSpec: synth.Spec{GridW: 4, GridH: 4},
	})
	if err == nil || !strings.Contains(err.Error(), "world 7") {
		t.Fatalf("bad grid spec: %v", err)
	}
}

// TestSweepWorldForkExcluded pins that a synthetic row shares only the run
// of a row of its own world, never a recorded one, and that sharing leaves
// every row as it is without it.
func TestSweepWorldForkExcluded(t *testing.T) {
	const procs = 8
	ts := luTraces(t, npb.ClassS, procs)
	m := luModel(t, npb.ClassS, procs)
	ckpts, err := ParseCkptList("none;60/5")
	if err != nil {
		t.Fatal(err)
	}
	run := func(fork bool) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: platform.BordereauWithCores(procs, 1),
			Grid:     Grid{World: []int{0, procs}, Coll: mustCollList(t, "linear;binomial"), Ckpt: ckpts},
			Traces:   ts,
			Synth:    m,
			Fork:     fork,
			Timed:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scratch, shared := run(false), run(true)
	compareSweeps(t, "world fork=on vs off", scratch, shared)
	for _, sc := range shared.Scenarios {
		if sc.Err != "" {
			t.Fatalf("scenario %q failed: %s", sc.Name, sc.Err)
		}
		if sc.Forked != (sc.Ckpt != nil) {
			t.Fatalf("scenario %q: forked=%v", sc.Name, sc.Forked)
		}
	}
	// A derived row holds the very timed trace of the row that replayed its
	// group. Both worlds replay the same actions at this size, so only that
	// identity tells a synthetic row sharing a recorded run apart.
	for i := range shared.Scenarios {
		sc := &shared.Scenarios[i]
		if !sc.Forked {
			continue
		}
		var src *ScenarioResult
		for j := range shared.Scenarios {
			if o := &shared.Scenarios[j]; !o.Forked && &o.TimedTrace[0] == &sc.TimedTrace[0] {
				src = o
			}
		}
		if src == nil {
			t.Fatalf("scenario %q reuses no replayed row's timed trace", sc.Name)
		}
		if src.World != sc.World || src.Coll != sc.Coll {
			t.Fatalf("scenario %q reuses the run of %q", sc.Name, src.Name)
		}
	}
}

func mustCollList(t *testing.T, s string) []coll.Config {
	t.Helper()
	cs, err := ParseCollList(s)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}
