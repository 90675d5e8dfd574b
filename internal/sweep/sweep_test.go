package sweep

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tireplay/internal/coll"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/trace"
)

// luTraces acquires one LU trace set through the recorder engine.
func luTraces(t testing.TB, class npb.Class, procs int) *TraceSet {
	t.Helper()
	prog, err := npb.LU(npb.LUConfig{Class: class, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		t.Fatal(err)
	}
	return TracesFromActions(perRank)
}

func TestExpandDeterministicOrder(t *testing.T) {
	g := Grid{LatencyScale: []float64{1, 2}, BandwidthScale: []float64{1, 10}, Fold: []int{1, 2}}
	scs := g.Expand()
	if len(scs) != g.Size() || len(scs) != 8 {
		t.Fatalf("expanded %d scenarios, Size()=%d, want 8", len(scs), g.Size())
	}
	// Latency is the innermost axis; indices are positional.
	if scs[0].LatencyScale != 1 || scs[1].LatencyScale != 2 || scs[2].BandwidthScale != 10 {
		t.Fatalf("unexpected order: %+v", scs[:3])
	}
	for i, sc := range scs {
		if sc.Index != i {
			t.Fatalf("scenario %d has index %d", i, sc.Index)
		}
		if sc.Fold < 1 {
			t.Fatalf("scenario %d fold %d", i, sc.Fold)
		}
	}
	if (Grid{}).Size() != 1 {
		t.Fatal("zero grid must hold exactly the identity scenario")
	}
}

// TestGridSizeSaturates pins that an overflowing grid size saturates
// instead of wrapping under a front end's scenario cap, and that the shared
// input check rejects it before anything expands.
func TestGridSizeSaturates(t *testing.T) {
	// Seven axes of 1024 entries: 2^70 cells, a size that wraps an int to 0.
	ones, nones := strings.Repeat("1,", 1023)+"1", strings.Repeat("none;", 1023)+"none"
	g, err := GridSpec{Lat: ones, Bw: ones, Power: ones, Fold: ones, Hosts: ones,
		Fault: nones, Ckpt: nones}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Size(); n != math.MaxInt {
		t.Fatalf("Size() = %d, want math.MaxInt", n)
	}
	err = g.CheckInputs(true, false)
	if err == nil || !strings.Contains(err.Error(), "or more scenarios") {
		t.Fatalf("CheckInputs = %v, want the saturated-size error", err)
	}
}

func TestParseLists(t *testing.T) {
	fs, err := ParseFloatList(" 0.5, 1,2 ")
	if err != nil || len(fs) != 3 || fs[0] != 0.5 {
		t.Fatalf("ParseFloatList = %v, %v", fs, err)
	}
	for _, bad := range []string{"1,-2", "0", "NaN", "Inf", "-Inf", "1,+Inf"} {
		if _, err := ParseFloatList(bad); err == nil {
			t.Fatalf("ParseFloatList(%q) must fail: factors are positive and finite", bad)
		}
	}
	is, err := ParseIntList("1,2,4")
	if err != nil || len(is) != 3 || is[2] != 4 {
		t.Fatalf("ParseIntList = %v, %v", is, err)
	}
	if _, err := ParseIntList("0"); err == nil {
		t.Fatal("zero count must fail")
	}
	cs, err := ParseCollList("linear; binomial;bcast=binomial,allReduce=ring")
	if err != nil || len(cs) != 3 ||
		cs[0].For(coll.KindBcast) != coll.Linear ||
		cs[1].For(coll.KindBcast) != coll.Binomial ||
		cs[2].For(coll.KindAllReduce) != coll.Ring {
		t.Fatalf("ParseCollList = %v, %v", cs, err)
	}
	// Trailing and doubled semicolons are not extra default scenarios.
	cs, err = ParseCollList("linear;;binomial;")
	if err != nil || len(cs) != 2 {
		t.Fatalf("ParseCollList with empty parts = %v, %v", cs, err)
	}
	if _, err := ParseCollList("linear;bcast=ring"); err == nil {
		t.Fatal("unsupported pair must fail")
	}
	if cs, err := ParseCollList(""); err != nil || cs != nil {
		t.Fatalf("empty coll list = %v, %v", cs, err)
	}
}

// TestSweepDeterministicAcrossWorkers is the engine's core guarantee: the
// same grid replayed at workers=1 and workers=NumCPU (at least 4, so the
// pool really interleaves) produces byte-identical per-scenario timed traces
// and identical makespans. The race job replays this test under -race, which
// doubles as the shared-trace data-race check. The profile rows are the
// same whether a totals-only profile (Profile alone) or the full metrics
// sink (Profile with Metrics) folds them.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	const procs = 8
	ts := luTraces(t, npb.ClassS, procs)
	grid := Grid{
		LatencyScale:   []float64{1, 2},
		BandwidthScale: []float64{0.5, 1},
		PowerScale:     []float64{1, 2},
	}
	base := platform.BordereauWithCores(procs, 1)
	run := func(workers int, metrics bool) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base,
			Grid:     grid,
			Traces:   ts,
			Workers:  workers,
			Timed:    true,
			Profile:  true,
			Metrics:  metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	serial := run(1, false)
	parallel := run(workers, false)
	withMetrics := run(workers, true)
	if len(serial.Scenarios) != 8 || len(parallel.Scenarios) != 8 {
		t.Fatalf("scenario counts: %d vs %d", len(serial.Scenarios), len(parallel.Scenarios))
	}
	for i := range serial.Scenarios {
		s, p := &serial.Scenarios[i], &parallel.Scenarios[i]
		if s.Err != "" || p.Err != "" {
			t.Fatalf("scenario %d failed: %q / %q", i, s.Err, p.Err)
		}
		if s.SimulatedTime != p.SimulatedTime {
			t.Fatalf("scenario %d (%s): makespan %g (serial) != %g (parallel)",
				i, s.Name, s.SimulatedTime, p.SimulatedTime)
		}
		if s.Actions != p.Actions {
			t.Fatalf("scenario %d: actions %d != %d", i, s.Actions, p.Actions)
		}
		if !bytes.Equal(s.TimedTrace, p.TimedTrace) {
			t.Fatalf("scenario %d (%s): timed traces differ (%d vs %d bytes)",
				i, s.Name, len(s.TimedTrace), len(p.TimedTrace))
		}
		if len(s.TimedTrace) == 0 {
			t.Fatalf("scenario %d: empty timed trace", i)
		}
		if len(s.Profile) != procs || len(p.Profile) != procs {
			t.Fatalf("scenario %d: profile rows %d / %d", i, len(s.Profile), len(p.Profile))
		}
		if m := &withMetrics.Scenarios[i]; !reflect.DeepEqual(s.Profile, m.Profile) {
			t.Fatalf("scenario %d (%s): profile rows differ with metrics on", i, s.Name)
		}
	}
	// The grid must actually change predictions: at equal network, doubling
	// the flop rate (scenario 7 vs 3) must shorten the makespan.
	if serial.Scenarios[7].SimulatedTime >= serial.Scenarios[3].SimulatedTime {
		t.Fatalf("scenario 7 (%s) %g not faster than scenario 3 (%s) %g",
			serial.Scenarios[7].Name, serial.Scenarios[7].SimulatedTime,
			serial.Scenarios[3].Name, serial.Scenarios[3].SimulatedTime)
	}
}

// disjointTraces builds a 4-rank trace whose communication stays inside the
// pairs (0,1) and (2,3), so it replays on a platform whose two clusters
// share no route.
func disjointTraces() *TraceSet {
	mk := func(r, peer int) []trace.Action {
		return []trace.Action{
			{Proc: r, Type: trace.Compute, Volume: 1e8, Peer: -1},
			{Proc: r, Type: trace.Send, Peer: peer, Volume: 1e4},
			{Proc: r, Type: trace.Irecv, Peer: peer},
			{Proc: r, Type: trace.Wait, Peer: -1},
			{Proc: r, Type: trace.Compute, Volume: 5e7, Peer: -1},
		}
	}
	return TracesFromActions([][]trace.Action{mk(0, 1), mk(1, 0), mk(2, 3), mk(3, 2)})
}

// disjointPlatform declares two 2-host clusters with no route between them.
func disjointPlatform() *platform.Platform {
	return &platform.Platform{
		Version: "3",
		AS: platform.AS{
			ID: "AS_split", Routing: "Full",
			Clusters: []platform.Cluster{
				{ID: "alpha", Prefix: "a-", Radical: "0-1", Power: "1E9", BW: "1.25E8", Lat: "1E-5"},
				{ID: "beta", Prefix: "b-", Radical: "0-1", Power: "1E9", BW: "1.25E8", Lat: "1E-5"},
			},
		},
	}
}

// TestSweepCancellation cancels the context from the first completed
// scenario's callback: the sweep must stop scheduling, mark unstarted
// scenarios as cancelled, return ctx.Err(), and leak no goroutines.
func TestSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ts := luTraces(t, npb.ClassS, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, &Config{
		Platform: platform.BordereauWithCores(4, 1),
		Grid:     Grid{LatencyScale: []float64{1, 2, 4, 8}, BandwidthScale: []float64{1, 2, 4, 8}},
		Traces:   ts,
		Workers:  2,
		OnResult: func(*ScenarioResult) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done, canceled := 0, 0
	for _, sc := range res.Scenarios {
		switch sc.Err {
		case "":
			done++
		case "sweep: canceled":
			canceled++
		default:
			t.Fatalf("scenario %d: unexpected error %q", sc.Index, sc.Err)
		}
	}
	if done == 0 {
		t.Fatal("no scenario completed before cancellation")
	}
	if canceled == 0 {
		t.Fatal("cancellation skipped nothing: test raced to completion, enlarge the grid")
	}
	// All pool goroutines (and every kernel goroutine they spawned) must be
	// gone; allow the runtime a moment to unwind them.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestLoadDirMixedEncodings(t *testing.T) {
	dir := t.TempDir()
	acts := [][]trace.Action{
		{{Proc: 0, Type: trace.Compute, Volume: 1e6, Peer: -1}},
		{{Proc: 1, Type: trace.Compute, Volume: 2e6, Peer: -1}},
	}
	// Rank 0 as text, rank 1 as binary.
	if err := os.WriteFile(filepath.Join(dir, trace.ProcessFileName(0)),
		[]byte(acts[0][0].Format()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, trace.BinaryFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeBinary(f, acts[1]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ts, err := LoadDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for r := 0; r < 2; r++ {
		src, err := ts.source(r)
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Action
		for {
			a, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, a)
		}
		if len(got) != 1 || got[0].Volume != acts[r][0].Volume {
			t.Fatalf("rank %d: %+v", r, got)
		}
	}
	if _, err := LoadDir(dir, 3); err == nil {
		t.Fatal("missing rank must fail")
	}
}

func TestRenderOutputs(t *testing.T) {
	ts := disjointTraces()
	res, err := Run(context.Background(), &Config{
		Platform: disjointPlatform(),
		Grid:     Grid{PowerScale: []float64{1, 2}},
		Traces:   ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tab, js bytes.Buffer
	res.RenderTable(&tab)
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pow=1", "pow=2", "speedup"} {
		if !bytes.Contains(tab.Bytes(), []byte(want)) {
			t.Fatalf("table misses %q:\n%s", want, tab.String())
		}
	}
	if !bytes.Contains(js.Bytes(), []byte(`"simulated_time"`)) {
		t.Fatalf("json misses simulated_time:\n%s", js.String())
	}

	// Names longer than the default column width, an error row among them,
	// still line up: every line's first separator sits at the same offset.
	grid, err := GridSpec{Coll: "allReduce=ring", Fault: "none;host:0@0",
		Ckpt: "none;60/5/10/30"}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(context.Background(), &Config{
		Platform: disjointPlatform(), Grid: grid, Traces: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wide bytes.Buffer
	long.RenderTable(&wide)
	lines := strings.Split(strings.TrimSuffix(wide.String(), "\n"), "\n")
	if len(lines) != 1+grid.Size() || !strings.Contains(wide.String(), "lost to fail-stop") {
		t.Fatalf("want a header, %d rows and an error row:\n%s", grid.Size(), wide.String())
	}
	for _, l := range lines[1:] {
		if got, want := strings.IndexByte(l, '|'), strings.IndexByte(lines[0], '|'); got != want {
			t.Fatalf("separator at %d, header's at %d:\n%s", got, want, wide.String())
		}
	}
}

// TestSweepCollAxisDeterministicAcrossWorkers extends the determinism
// guarantee to the collective-algorithm axis, at the acceptance scale of the
// axis: an 8-scenario `tisweep -coll`-style sweep over LU class A replayed
// at workers=1 and workers=NumCPU must produce byte-identical per-scenario
// timed traces — and the axis must actually move the prediction, with the
// binomial scenarios' makespans differing from the linear ones' in the
// rendered table.
func TestSweepCollAxisDeterministicAcrossWorkers(t *testing.T) {
	const procs = 8
	ts := luTraces(t, npb.ClassA, procs)
	// The latency axis weights the collective topology: LU's norm
	// reductions are 40-byte messages, so at 20x latency the star-vs-tree
	// depth difference dominates those cells of the grid.
	grid := Grid{
		LatencyScale: []float64{1, 20},
		Coll: []coll.Config{
			{},
			coll.MustParseSpec("binomial"),
			coll.MustParseSpec("allReduce=ring"),
			coll.MustParseSpec("auto"),
		},
	}
	if grid.Size() != 8 {
		t.Fatalf("grid expands to %d scenarios, want 8", grid.Size())
	}
	base := platform.BordereauWithCores(procs, 1)
	run := func(workers int) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base,
			Grid:     grid,
			Traces:   ts,
			Workers:  workers,
			Timed:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	serial := run(1)
	parallel := run(workers)
	for i := range serial.Scenarios {
		s, p := &serial.Scenarios[i], &parallel.Scenarios[i]
		if s.Err != "" || p.Err != "" {
			t.Fatalf("scenario %d failed: %q / %q", i, s.Err, p.Err)
		}
		if s.SimulatedTime != p.SimulatedTime || s.Actions != p.Actions {
			t.Fatalf("scenario %d (%s): serial %g/%d != parallel %g/%d",
				i, s.Name, s.SimulatedTime, s.Actions, p.SimulatedTime, p.Actions)
		}
		if !bytes.Equal(s.TimedTrace, p.TimedTrace) || len(s.TimedTrace) == 0 {
			t.Fatalf("scenario %d (%s): timed traces differ across worker counts "+
				"(%d vs %d bytes)", i, s.Name, len(s.TimedTrace), len(p.TimedTrace))
		}
	}
	// Scenario 1 is linear at lat=20, scenario 3 binomial at lat=20: the
	// algorithm axis must change the predicted makespan.
	lin, bin := &serial.Scenarios[1], &serial.Scenarios[3]
	if !strings.Contains(bin.Name, "coll=binomial") || !strings.Contains(bin.Name, "lat=20") {
		t.Fatalf("scenario 3 is %q, want the binomial lat=20 cell", bin.Name)
	}
	if bin.SimulatedTime >= lin.SimulatedTime {
		t.Fatalf("binomial makespan %g not below linear %g at 20x latency — the axis is inert",
			bin.SimulatedTime, lin.SimulatedTime)
	}
	// And the rendered table shows both cells with distinct predictions.
	var tab bytes.Buffer
	serial.RenderTable(&tab)
	out := tab.String()
	for _, want := range []string{"coll=binomial", "coll=allReduce=ring", "coll=auto"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table misses %q:\n%s", want, out)
		}
	}
	linRow, binRow := tableRow(out, lin.Name), tableRow(out, bin.Name)
	if linRow == "" || binRow == "" || fieldAfterName(linRow) == fieldAfterName(binRow) {
		t.Fatalf("table rows do not show distinct linear vs binomial predictions:\n%s", out)
	}
}

// tableRow returns the rendered table line whose scenario label is name.
func tableRow(table, name string) string {
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(strings.TrimSpace(line), name) {
			return line
		}
	}
	return ""
}

// fieldAfterName extracts the predicted-time cell of a table row.
func fieldAfterName(row string) string {
	parts := strings.Split(row, "|")
	if len(parts) < 2 {
		return ""
	}
	return strings.TrimSpace(parts[1])
}
