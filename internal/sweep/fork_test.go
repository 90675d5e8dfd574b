package sweep

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/trace"
)

// forkSweepTrace is a 4-rank compute+ring exchange followed by an allReduce,
// so the collective axis changes the run while the ckpt axis only changes
// the analytic waste applied to it.
const forkSweepTrace = `p0 compute 2e6
p0 send p1 1e5
p0 recv p3
p0 allReduce 1e5 2e6
p0 compute 1e6
p1 recv p0
p1 compute 3e6
p1 send p2 1e5
p1 allReduce 1e5 2e6
p1 compute 5e5
p2 recv p1
p2 compute 1e6
p2 send p3 1e5
p2 allReduce 1e5 2e6
p2 compute 2e6
p3 recv p2
p3 compute 4e6
p3 send p0 1e5
p3 allReduce 1e5 2e6
p3 compute 1e6
`

func forkTraces(t testing.TB, doc string, n int) *TraceSet {
	t.Helper()
	actions, err := trace.ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, n)
	for _, a := range actions {
		perRank[a.Proc] = append(perRank[a.Proc], a)
	}
	return TracesFromActions(perRank)
}

// compareSweeps requires two sweep results to agree scenario by scenario:
// bit-equal makespans, equal action counts, byte-identical timed traces and
// equal profiles.
func compareSweeps(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Scenarios) != len(b.Scenarios) {
		t.Fatalf("%s: %d vs %d scenarios", label, len(a.Scenarios), len(b.Scenarios))
	}
	for i := range a.Scenarios {
		sa, sb := &a.Scenarios[i], &b.Scenarios[i]
		if sa.Err != sb.Err {
			t.Fatalf("%s: scenario %d (%s): err %q vs %q", label, i, sa.Name, sa.Err, sb.Err)
		}
		if sa.SimulatedTime != sb.SimulatedTime {
			t.Errorf("%s: scenario %d (%s): makespan %.17g vs %.17g",
				label, i, sa.Name, sa.SimulatedTime, sb.SimulatedTime)
		}
		if sa.Actions != sb.Actions {
			t.Errorf("%s: scenario %d (%s): actions %d vs %d",
				label, i, sa.Name, sa.Actions, sb.Actions)
		}
		if !bytes.Equal(sa.TimedTrace, sb.TimedTrace) {
			t.Errorf("%s: scenario %d (%s): timed traces differ (%d vs %d bytes)",
				label, i, sa.Name, len(sa.TimedTrace), len(sb.TimedTrace))
		}
		if !reflect.DeepEqual(sa.Profile, sb.Profile) {
			t.Errorf("%s: scenario %d (%s): profiles differ", label, i, sa.Name)
		}
		if (sa.Resilience == nil) != (sb.Resilience == nil) {
			t.Errorf("%s: scenario %d: resilience presence differs", label, i)
		} else if sa.Resilience != nil && *sa.Resilience != *sb.Resilience {
			t.Errorf("%s: scenario %d: resilience %+v vs %+v", label, i, sa.Resilience, sb.Resilience)
		}
	}
}

func countForked(r *Result) int {
	n := 0
	for i := range r.Scenarios {
		if r.Scenarios[i].Forked {
			n++
		}
	}
	return n
}

// metricsJSON renders a sweep's deterministic -metrics-json view.
func metricsJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepForkMatchesScratch is the sharing rule's acceptance gate: a
// -coll x -ckpt grid replayed with sharing on must be bit-equal (makespans)
// and byte-identical (timed traces, the metrics JSON view) to the same grid
// with sharing off, at one worker and at NumCPU workers — and every ckpt
// row must actually reuse its ckpt=none sibling's run.
func TestSweepForkMatchesScratch(t *testing.T) {
	ts := forkTraces(t, forkSweepTrace, 4)
	ck, err := replay.ParseCkpt("60/5")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Coll: []coll.Config{{}, coll.MustParseSpec("binomial"), coll.MustParseSpec("allReduce=ring")},
		Ckpt: []*replay.Ckpt{nil, ck},
	}
	base := platform.BordereauWithCores(4, 1)
	var registry *replay.Registry
	run := func(fork, timed bool, workers int) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base, Grid: grid, Traces: ts, Registry: registry,
			Workers: workers, Timed: timed, Profile: true, Metrics: true, Fork: fork,
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
	scratch := run(false, true, 1)
	forked1 := run(true, true, 1)
	forkedN := run(true, true, workers)
	compareSweeps(t, "fork=on vs fork=off", scratch, forked1)
	compareSweeps(t, "fork workers=1 vs N", forked1, forkedN)
	want := metricsJSON(t, scratch)
	if got := metricsJSON(t, forked1); !bytes.Equal(got, want) {
		t.Errorf("fork=on metrics JSON differs from fork=off:\n%s\nvs\n%s", got, want)
	}
	if got := metricsJSON(t, forkedN); !bytes.Equal(got, want) {
		t.Errorf("fork=on at %d workers: metrics JSON differs from fork=off", workers)
	}

	if n := countForked(scratch); n != 0 {
		t.Fatalf("fork=off marked %d scenarios forked", n)
	}
	checkCkptRowsShare(t, forked1)
	checkCkptRowsShare(t, forkedN)

	// Without timed traces the shared sink still feeds the profile and the
	// metrics of every row of the group: sharing must change neither.
	untimed := run(false, false, 1)
	untimedForked := run(true, false, workers)
	compareSweeps(t, "untimed fork=on vs fork=off", untimed, untimedForked)
	if got, want := metricsJSON(t, untimedForked), metricsJSON(t, untimed); !bytes.Equal(got, want) {
		t.Errorf("untimed fork=on metrics JSON differs from fork=off:\n%s\nvs\n%s", got, want)
	}
	checkCkptRowsShare(t, untimedForked)

	// A custom registry shares too: a whole run carries no handler state
	// from one row to another.
	registry = replay.Default()
	customScratch, customForked := run(false, true, 1), run(true, true, workers)
	compareSweeps(t, "custom registry fork=on vs fork=off", customScratch, customForked)
	compareSweeps(t, "custom registry vs default", scratch, customForked)
	checkCkptRowsShare(t, customForked)
}

// checkCkptRowsShare requires exactly the ckpt rows of a sweep to reuse
// their sibling's run, inheriting every action and charging no wall time.
func checkCkptRowsShare(t *testing.T, r *Result) {
	t.Helper()
	for i := range r.Scenarios {
		s := &r.Scenarios[i]
		if s.Forked != (s.Ckpt != nil) {
			t.Errorf("scenario %d (%s): forked=%v", i, s.Name, s.Forked)
		}
		want := int64(0)
		if s.Forked {
			want = s.Actions
			if s.Wall != 0 {
				t.Errorf("scenario %d (%s): shared row charged %v wall", i, s.Name, s.Wall)
			}
		}
		if s.PrefixActions != want {
			t.Errorf("scenario %d (%s): prefix actions = %d, want %d", i, s.Name, s.PrefixActions, want)
		}
	}
}

// TestSweepForkTopoZoo runs a coll x ckpt grid across generated topologies
// (one sharing group per interconnect and collective) and checks fork-on
// equals fork-off everywhere.
func TestSweepForkTopoZoo(t *testing.T) {
	ts := forkTraces(t, forkSweepTrace, 4)
	ck, err := replay.ParseCkpt("60/5")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Coll: []coll.Config{{}, coll.MustParseSpec("binomial")},
		Topo: []platform.TopoSpec{
			{Kind: "fat-tree", K: 4},
			{Kind: "torus", Dims: []int{2, 2}},
			{Kind: "dragonfly", Groups: 2, Routers: 2, HostsPer: 2},
		},
		Ckpt: []*replay.Ckpt{nil, ck},
	}
	run := func(fork bool) *Result {
		res, err := Run(context.Background(), &Config{
			Grid: grid, Traces: ts, Workers: 2, Timed: true, Fork: fork,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scratch, forked := run(false), run(true)
	compareSweeps(t, "topo zoo fork=on vs off", scratch, forked)
	checkCkptRowsShare(t, forked)
	if n, want := countForked(forked), len(forked.Scenarios)/2; n != want {
		t.Fatalf("%d of %d scenarios forked across the topology zoo, want %d",
			n, len(forked.Scenarios), want)
	}
}

// TestSweepForkFaultAndCkptAxes: a degradation profile shares (its windows
// are part of the run), and fail-stop cells without a checkpoint protocol
// replay alone but stay correct.
func TestSweepForkFaultAndCkptAxes(t *testing.T) {
	ts := forkTraces(t, forkSweepTrace, 4)
	deg, err := platform.ParseFaultSpec("cpu:0.5@0.0001-0.005")
	if err != nil {
		t.Fatal(err)
	}
	fail, err := platform.ParseFaultSpec("host:1@1e-3")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := replay.ParseCkpt("60/5")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Faults: []*platform.FaultSpec{nil, deg, fail},
		Ckpt:   []*replay.Ckpt{nil, ck},
	}
	base := platform.BordereauWithCores(4, 1)
	run := func(fork bool) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base, Grid: grid, Traces: ts, Workers: 2, Timed: true, Fork: fork,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scratch, forked := run(false), run(true)
	compareSweeps(t, "fault/ckpt fork=on vs off", scratch, forked)
	forkedBy := make(map[string]bool)
	for i := range forked.Scenarios {
		forkedBy[forked.Scenarios[i].Name] = forked.Scenarios[i].Forked
	}
	// The fault-free and degraded pairs differ only in Ckpt: the ckpt=none
	// row replays and its ckpt sibling reuses the run. The fail-stop abort
	// cell replays alone; the fail-stop+ckpt cell then has no partner.
	for name, want := range map[string]bool{
		"lat=1 bw=1 pow=1 fold=1":                                          false,
		"lat=1 bw=1 pow=1 fold=1 ckpt=60/5/0/0":                            true,
		"lat=1 bw=1 pow=1 fold=1 fault=cpu:0.5@0.0001-0.005":               false,
		"lat=1 bw=1 pow=1 fold=1 fault=cpu:0.5@0.0001-0.005 ckpt=60/5/0/0": true,
		"lat=1 bw=1 pow=1 fold=1 fault=host:1@0.001":                       false,
		"lat=1 bw=1 pow=1 fold=1 fault=host:1@0.001 ckpt=60/5/0/0":         false,
	} {
		got, seen := forkedBy[name]
		if !seen {
			t.Fatalf("scenario %q missing (have %v)", name, forkedBy)
		}
		if got != want {
			t.Errorf("scenario %q: forked=%v, want %v", name, got, want)
		}
	}
}

// TestSweepForkRenderTable: the prefix-reuse column appears exactly when some
// scenario forked.
func TestSweepForkRenderTable(t *testing.T) {
	ts := forkTraces(t, forkSweepTrace, 4)
	ckpts, err := ParseCkptList("none;60/5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(4, 1),
		Grid:     Grid{Ckpt: ckpts},
		Traces:   ts,
		Fork:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.RenderTable(&buf)
	if !strings.Contains(buf.String(), "prefix") {
		t.Fatalf("table misses the prefix column:\n%s", buf.String())
	}
	var plain bytes.Buffer
	res2, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(4, 1),
		Grid:     Grid{Coll: []coll.Config{{}, coll.MustParseSpec("binomial")}},
		Traces:   ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2.RenderTable(&plain)
	if strings.Contains(plain.String(), "prefix") {
		t.Fatalf("unforked table grew a prefix column:\n%s", plain.String())
	}
}
