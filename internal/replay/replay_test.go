package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

const figure1Trace = `p0 compute 1e6
p0 send p1 1e6
p0 recv p3
p1 recv p0
p1 compute 1e6
p1 send p2 1e6
p2 recv p1
p2 compute 1e6
p2 send p3 1e6
p3 recv p2
p3 compute 1e6
p3 send p0 1e6
`

// npbTraces records one NPB program's class S per-rank action lists
// ("LU", "CG").
func npbTraces(t *testing.T, name string, procs int) [][]trace.Action {
	t.Helper()
	perRank, err := npb.RecordAll(strings.ToLower(name), "S", procs)
	if err != nil {
		t.Fatal(err)
	}
	return perRank
}

// paperSetup builds the Figure 5 platform and deployment for n processes.
func paperSetup(t *testing.T, n int) (*platform.Build, *platform.Deployment) {
	t.Helper()
	b, err := platform.BuildBordereau(n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

func perRankActions(t *testing.T, doc string, n int) [][]trace.Action {
	t.Helper()
	actions, err := trace.ParseAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, n)
	for _, a := range actions {
		perRank[a.Proc] = append(perRank[a.Proc], a)
	}
	return perRank
}

func TestReplayFigure1AnalyticTime(t *testing.T) {
	b, d := paperSetup(t, 4)
	perRank := perRankActions(t, figure1Trace, 4)
	res, err := RunActions(b, d, Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	// Fully serialised ring: 4 * (compute + transfer).
	tc := 1e6 / platform.BordereauPower
	tm := 3*platform.ClusterLatency + 1e6/platform.GigaEthernetBw
	want := 4 * (tc + tm)
	if diff := res.SimulatedTime - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("simulated time = %.9f, want %.9f", res.SimulatedTime, want)
	}
	if res.Actions != 12 {
		t.Fatalf("actions = %d", res.Actions)
	}
	if res.WallTime <= 0 {
		t.Fatal("wall time not measured")
	}
}

func TestReplayDeterministic(t *testing.T) {
	run := func() float64 {
		b, d := paperSetup(t, 4)
		perRank := perRankActions(t, figure1Trace, 4)
		res, err := RunActions(b, d, Config{}, perRank)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime
	}
	first := run()
	for i := 0; i < 3; i++ {
		if v := run(); v != first {
			t.Fatalf("non-deterministic replay: %g vs %g", v, first)
		}
	}
}

func TestReplayPiecewiseModelSlowerThanIdentity(t *testing.T) {
	// The default MPI model multiplies latencies and divides bandwidth, so
	// it must predict a longer time than the raw network model.
	run := func(m *smpi.Model) float64 {
		b, d := paperSetup(t, 4)
		res, err := RunActions(b, d, Config{Model: m}, perRankActions(t, figure1Trace, 4))
		if err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime
	}
	ident := run(smpi.Identity())
	dflt := run(smpi.Default())
	if dflt <= ident {
		t.Fatalf("piecewise model (%g) not slower than identity (%g)", dflt, ident)
	}
}

func TestReplayCollectives(t *testing.T) {
	const doc = `p0 comm_size 4
p0 bcast 1e6
p0 reduce 1e5 2e6
p0 allReduce 1e5 2e6
p0 barrier
p1 comm_size 4
p1 bcast 1e6
p1 reduce 1e5 2e6
p1 allReduce 1e5 2e6
p1 barrier
p2 comm_size 4
p2 bcast 1e6
p2 reduce 1e5 2e6
p2 allReduce 1e5 2e6
p2 barrier
p3 comm_size 4
p3 bcast 1e6
p3 reduce 1e5 2e6
p3 allReduce 1e5 2e6
p3 barrier
`
	b, d := paperSetup(t, 4)
	res, err := RunActions(b, d, Config{}, perRankActions(t, doc, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("non-positive simulated time")
	}
	if res.Actions != 20 {
		t.Fatalf("actions = %d", res.Actions)
	}
}

func TestReplayIrecvWait(t *testing.T) {
	const doc = `p0 Irecv p1
p0 compute 1e7
p0 wait
p1 compute 1e5
p1 send p0 2e6
`
	b, d := paperSetup(t, 2)
	res, err := RunActions(b, d, Config{}, perRankActions(t, doc, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("non-positive simulated time")
	}
}

func TestReplayWaitWithoutIrecvFails(t *testing.T) {
	b, d := paperSetup(t, 1)
	perRank := [][]trace.Action{{{Proc: 0, Type: trace.Wait, Peer: -1}}}
	if _, err := RunActions(b, d, Config{}, perRank); err == nil {
		t.Fatal("expected error for wait without pending request")
	}
}

func TestReplayCommSizeMismatchFails(t *testing.T) {
	b, d := paperSetup(t, 2)
	perRank := [][]trace.Action{
		{{Proc: 0, Type: trace.CommSize, Peer: -1, Volume: 8}},
		{},
	}
	if _, err := RunActions(b, d, Config{}, perRank); err == nil {
		t.Fatal("expected comm_size mismatch error")
	}
}

func TestReplayForeignRankActionFails(t *testing.T) {
	b, d := paperSetup(t, 2)
	perRank := [][]trace.Action{
		{{Proc: 1, Type: trace.Barrier, Peer: -1}},
		{},
	}
	if _, err := RunActions(b, d, Config{}, perRank); err == nil {
		t.Fatal("expected foreign-rank error")
	}
}

func TestReplayEagerAvoidsHeadToHeadDeadlock(t *testing.T) {
	// Two ranks both send first: small sends are buffered (eager) and
	// complete; sends above smpi.EagerThreshold are synchronous and
	// deadlock head to head.
	const eager = `p0 send p1 1024
p0 recv p1
p1 send p0 1024
p1 recv p0
`
	b, d := paperSetup(t, 2)
	if _, err := RunActions(b, d, Config{}, perRankActions(t, eager, 2)); err != nil {
		t.Fatalf("eager replay failed: %v", err)
	}

	const synchronous = `p0 send p1 1e6
p0 recv p1
p1 send p0 1e6
p1 recv p0
`
	b2, d2 := paperSetup(t, 2)
	_, err := RunActions(b2, d2, Config{}, perRankActions(t, synchronous, 2))
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("synchronous head-to-head should deadlock, got %v", err)
	}
}

func TestReplayTimedTraceOutput(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	b, d := paperSetup(t, 4)
	res, err := RunActions(b, d, Config{TimedTracer: tw}, perRankActions(t, figure1Trace, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// 4 computes + 4 sends = 8 activity completions.
	if tw.Lines() != 8 {
		t.Fatalf("timed trace lines = %d, want 8", tw.Lines())
	}
	if !strings.Contains(buf.String(), "compute 1e+06") {
		t.Fatalf("timed trace content:\n%s", buf.String())
	}
	_ = res
}

func TestReplayStreamingMatchesInMemory(t *testing.T) {
	b1, d1 := paperSetup(t, 4)
	inMem, err := RunActions(b1, d1, Config{}, perRankActions(t, figure1Trace, 4))
	if err != nil {
		t.Fatal(err)
	}

	perRankText := make([]string, 4)
	for _, line := range strings.Split(strings.TrimSpace(figure1Trace), "\n") {
		r := int(line[1] - '0')
		perRankText[r] += line + "\n"
	}
	sources := make([]Source, 4)
	for i, doc := range perRankText {
		sources[i] = ScannerSource(trace.NewScanner(strings.NewReader(doc)))
	}
	b2, d2 := paperSetup(t, 4)
	streamed, err := Run(b2, d2, Config{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.SimulatedTime != inMem.SimulatedTime {
		t.Fatalf("streamed %g != in-memory %g", streamed.SimulatedTime, inMem.SimulatedTime)
	}
}

func TestReplayFilesFromDeploymentArgs(t *testing.T) {
	dir := t.TempDir()
	actions, err := trace.ParseAll(strings.NewReader(figure1Trace))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := trace.WriteSplit(dir, 4, actions)
	if err != nil {
		t.Fatal(err)
	}
	b, d := paperSetup(t, 4)
	d2, err := d.WithTraceArgs(paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFiles(b, d2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Actions != 12 {
		t.Fatalf("actions = %d", res.Actions)
	}
}

func TestReplayFilesMissingArg(t *testing.T) {
	b, d := paperSetup(t, 2)
	if _, err := RunFiles(b, d, Config{}); err == nil {
		t.Fatal("expected missing-argument error")
	}
}

func TestReplayFilesMixedEncodings(t *testing.T) {
	// Per-process files in three encodings replay identically: text
	// (streamed), gzip and binary (loaded).
	dir := t.TempDir()
	actions, err := trace.ParseAll(strings.NewReader(figure1Trace))
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, 4)
	for _, a := range actions {
		perRank[a.Proc] = append(perRank[a.Proc], a)
	}
	paths := make([]string, 4)
	// Rank 0: text; rank 1: gzip; ranks 2-3: binary.
	paths[0] = filepath.Join(dir, "p0.trace")
	if err := trace.WriteFile(paths[0], perRank[0]); err != nil {
		t.Fatal(err)
	}
	paths[1] = filepath.Join(dir, "p1.trace.gz")
	if err := trace.WriteFile(paths[1], perRank[1]); err != nil {
		t.Fatal(err)
	}
	for r := 2; r < 4; r++ {
		paths[r] = filepath.Join(dir, fmt.Sprintf("p%d.tib", r))
		f, err := os.Create(paths[r])
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeBinary(f, perRank[r]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	b, d := paperSetup(t, 4)
	d2, err := d.WithTraceArgs(paths)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFiles(b, d2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b2, d3 := paperSetup(t, 4)
	ref, err := RunActions(b2, d3, Config{}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime != ref.SimulatedTime || res.Actions != 12 {
		t.Fatalf("mixed encodings: %g (%d actions) vs reference %g",
			res.SimulatedTime, res.Actions, ref.SimulatedTime)
	}
}

func TestCustomRegistryOverride(t *testing.T) {
	// Ablation hook: replace bcast with a monolithic analytic model (a
	// simple compute standing in for the whole collective).
	reg := Default()
	reg.Register("bcast", func(p *Proc, a trace.Action) error {
		p.Sim.Execute(a.Volume) // pretend the bcast costs volume flops
		return nil
	})
	const doc = "p0 bcast 1e6\np1 bcast 1e6\n"
	b, d := paperSetup(t, 2)
	res, err := RunActions(b, d, Config{Registry: reg}, perRankActions(t, doc, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6 / platform.BordereauPower
	if diff := res.SimulatedTime - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("override time = %g, want %g", res.SimulatedTime, want)
	}
}

func TestRegistryLookupUnknown(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup(trace.Compute); err == nil {
		t.Fatal("expected lookup failure")
	}
	r.Register("compute", builtin(trace.Compute))
	if _, err := r.Lookup(trace.Compute); err != nil {
		t.Fatal(err)
	}
	if kw := r.Keywords(); len(kw) != 1 || kw[0] != "compute" {
		t.Fatalf("keywords = %v", kw)
	}
}

// TestRegisterResolvesKeyword checks that Register binds a keyword the way
// a trace names its action: a different-case spelling binds the action and
// is listed once, under the action's keyword, and a keyword that names no
// action panics instead of leaving the built-in to replay.
func TestRegisterResolvesKeyword(t *testing.T) {
	r := Default()
	called := false
	r.Register("ALLREDUCE", func(*Proc, trace.Action) error {
		called = true
		return nil
	})
	h, err := r.Lookup(trace.AllReduce)
	if err != nil {
		t.Fatal(err)
	}
	if h(nil, trace.Action{}); !called {
		t.Fatal("Register(\"ALLREDUCE\") did not bind allReduce")
	}
	kw := r.Keywords()
	if len(kw) != int(trace.NumTypes) || !slices.Contains(kw, "allReduce") || slices.Contains(kw, "ALLREDUCE") {
		t.Fatalf("keywords = %v, want each action's keyword once", kw)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"computee"`) {
			t.Fatalf("Register(\"computee\") panicked with %q, want a panic naming the keyword", msg)
		}
		if kw := r.Keywords(); len(kw) != int(trace.NumTypes) {
			t.Fatalf("keywords after a bad keyword = %v", kw)
		}
	}()
	r.Register("computee", func(*Proc, trace.Action) error { return nil })
}

func TestDefaultRegistryCoversAllActionTypes(t *testing.T) {
	r := Default()
	for _, typ := range []trace.ActionType{
		trace.Compute, trace.Send, trace.Isend, trace.Recv, trace.Irecv,
		trace.Bcast, trace.Reduce, trace.AllReduce, trace.Barrier,
		trace.CommSize, trace.Wait, trace.WaitAll, trace.Gather,
		trace.AllGather, trace.AllToAll, trace.Scatter,
	} {
		if _, err := r.Lookup(typ); err != nil {
			t.Errorf("no handler for %v: %v", typ, err)
		}
	}
}
