package replay

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/trace"
)

// forkGroupTrace shares a balanced compute+ring prefix (three actions per
// rank) and diverges at the allReduce: members differing only in their
// collective algorithm share everything before it.
const forkGroupTrace = `p0 compute 2e6
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

// visitOf adapts in-memory per-rank actions to PlanPrefix's streaming shape.
func visitOf(perRank [][]trace.Action) func(int, func(trace.Action) bool) error {
	return func(r int, yield func(trace.Action) bool) error {
		for _, a := range perRank[r] {
			if !yield(a) {
				return nil
			}
		}
		return nil
	}
}

func sliceSources(perRank [][]trace.Action) []Source {
	out := make([]Source, len(perRank))
	for i := range perRank {
		out[i] = SliceSource(perRank[i])
	}
	return out
}

func TestPlanPrefixCollectiveCut(t *testing.T) {
	perRank := perRankActions(t, forkGroupTrace, 4)
	plan, ok, err := PlanPrefix(4, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	for r, c := range plan.Cuts {
		if c != 3 {
			t.Errorf("cut[%d] = %d, want 3 (first allReduce)", r, c)
		}
	}
	if plan.Actions != 12 {
		t.Fatalf("plan = %+v, want 12 of the trace's 20 actions shared", plan)
	}
}

// TestPlanPrefixMemoryScalesWithPairs pins that the planner's send/recv
// balance costs memory per communicating pair, not per rank pair: 4,096
// compute-only ranks would need a 128 MiB matrix.
func TestPlanPrefixMemoryScalesWithPairs(t *testing.T) {
	const n = 4096
	visit := func(r int, yield func(trace.Action) bool) error {
		yield(trace.Action{Proc: r, Type: trace.Compute, Volume: 1e6, Peer: -1})
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan, ok, err := PlanPrefix(n, true, visit)
	runtime.ReadMemStats(&after)
	if err != nil || !ok || plan.Actions != n {
		t.Fatalf("PlanPrefix: plan=%+v ok=%v err=%v", plan, ok, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("PlanPrefix over %d ranks allocated %d MiB, want under 8", n, alloc>>20)
	}
}

func TestPlanPrefixFullWithoutCollCut(t *testing.T) {
	perRank := perRankActions(t, forkGroupTrace, 4)
	plan, ok, err := PlanPrefix(4, false, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	if plan.Actions != 20 {
		t.Fatalf("plan = %+v, want the full 20-action trace", plan)
	}
	for r, c := range plan.Cuts {
		if c != 5 {
			t.Errorf("cut[%d] = %d, want 5", r, c)
		}
	}
}

func TestPlanPrefixCommSizeNotACut(t *testing.T) {
	// Real tau2ti traces open with comm_size; it touches no kernel state, so
	// it must not zero every cut.
	const doc = "p0 comm_size 2\np0 compute 1e6\np0 barrier\np1 comm_size 2\np1 barrier\n"
	perRank := perRankActions(t, doc, 2)
	plan, ok, err := PlanPrefix(2, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	if plan.Cuts[0] != 2 || plan.Cuts[1] != 1 {
		t.Fatalf("cuts = %v, want [2 1]", plan.Cuts)
	}
}

func TestPlanPrefixRejectsStraddlingSend(t *testing.T) {
	// p0 sends inside its prefix but p1 only receives after its collective:
	// the rendezvous would straddle the cut and the donor could not quiesce.
	const doc = `p0 send p1 1e6
p0 bcast 1e6
p1 bcast 1e6
p1 recv p0
`
	perRank := perRankActions(t, doc, 2)
	if _, ok, err := PlanPrefix(2, true, visitOf(perRank)); err != nil || ok {
		t.Fatalf("unbalanced prefix accepted (ok=%v err=%v)", ok, err)
	}
}

func TestPlanPrefixRejectsPendingIrecvAtCut(t *testing.T) {
	// p0 parks with an outstanding Irecv whose wait lies beyond the cut; the
	// resumed member would wait on a request only the donor held.
	const doc = `p0 Irecv p1
p0 bcast 1e6
p0 wait
p1 send p0 1e6
p1 bcast 1e6
`
	perRank := perRankActions(t, doc, 2)
	if _, ok, err := PlanPrefix(2, true, visitOf(perRank)); err != nil || ok {
		t.Fatalf("pending-Irecv prefix accepted (ok=%v err=%v)", ok, err)
	}
}

func TestPlanPrefixRejectsWaitWithoutRequest(t *testing.T) {
	const doc = "p0 wait\n"
	perRank := perRankActions(t, doc, 1)
	if _, ok, err := PlanPrefix(1, true, visitOf(perRank)); err != nil || ok {
		t.Fatalf("wait-on-empty prefix accepted (ok=%v err=%v)", ok, err)
	}
}

func TestForkableExclusions(t *testing.T) {
	fs, err := platform.ParseFaultSpec("host:1@5")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ParseCkpt("60/5")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"default", Config{}, true},
		{"registry", Config{Registry: NewRegistry()}, false},
		{"failstop abort", Config{Faults: fs}, false},
		{"failstop ckpt", Config{Faults: fs, Ckpt: ck}, true},
	}
	for _, tc := range cases {
		if got := tc.cfg.Forkable(); got != tc.want {
			t.Errorf("%s: Forkable() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// runScratch replays the whole trace from scratch with cfg, returning the
// result and the timed trace bytes.
func runScratch(t *testing.T, cfg Config, perRank [][]trace.Action) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	cfg.TimedTracer = tw
	b, d := paperSetup(t, len(perRank))
	res, err := RunActions(b, d, cfg, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestForkedRunMatchesScratch(t *testing.T) {
	perRank := perRankActions(t, forkGroupTrace, 4)
	// The ring algorithm is deliberately absent: its first round lets early
	// parkers exchange pairwise while the straggler's prefix still owns the
	// backbone, which is exactly the unsafe overlap the recorder refuses (see
	// TestForkedRunRingFallsBackUnsafe). Star and binomial schedules are
	// gated by the last parker, so they fork cleanly.
	members := []coll.Config{
		{},
		coll.MustParseSpec("binomial"),
	}

	plan, ok, err := PlanPrefix(4, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	donorB, depl := paperSetup(t, 4)
	pr, err := RunPrefix(donorB, depl, Config{}, sliceSources(perRank),
		PrefixOptions{Cuts: plan.Cuts, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Actions != plan.Actions {
		t.Fatalf("prefix replayed %d actions, planned %d", pr.Actions, plan.Actions)
	}

	for mi, cc := range members {
		want, wantTimed := runScratch(t, Config{Collectives: cc}, perRank)

		mb, _ := paperSetup(t, 4)
		var buf bytes.Buffer
		tw := NewTimedTraceWriter(&buf)
		got, err := pr.RunForked(mb, Config{Collectives: cc, TimedTracer: tw}, sliceSources(perRank))
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got.SimulatedTime != want.SimulatedTime {
			t.Errorf("member %d (coll=%s): forked makespan %.17g != scratch %.17g",
				mi, cc, got.SimulatedTime, want.SimulatedTime)
		}
		if got.Actions != want.Actions {
			t.Errorf("member %d: forked actions %d != scratch %d", mi, got.Actions, want.Actions)
		}
		if !bytes.Equal(buf.Bytes(), wantTimed) {
			t.Errorf("member %d: forked timed trace differs from scratch:\n--- forked ---\n%s--- scratch ---\n%s",
				mi, buf.Bytes(), wantTimed)
		}
	}
}

func TestForkedRunRingFallsBackUnsafe(t *testing.T) {
	// Ranks park at very different instants (the prefix ring serialises), so
	// the ring allReduce's round-0 pairwise exchange between early parkers
	// overlaps the straggler's prefix transfer on the shared backbone — a
	// from-scratch run would have split bandwidth there. The safety check
	// must flag it, and the member replays from scratch instead.
	perRank := perRankActions(t, forkGroupTrace, 4)
	plan, ok, err := PlanPrefix(4, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	donorB, depl := paperSetup(t, 4)
	pr, err := RunPrefix(donorB, depl, Config{}, sliceSources(perRank),
		PrefixOptions{Cuts: plan.Cuts, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	cc := coll.MustParseSpec("allReduce=ring")
	mb, _ := paperSetup(t, 4)
	_, err = pr.RunForked(mb, Config{Collectives: cc}, sliceSources(perRank))
	if !errors.Is(err, ErrForkUnsafe) {
		t.Fatalf("overlapping ring fork accepted (err=%v)", err)
	}
	// The fallback is a plain from-scratch replay; just confirm it runs.
	if _, timed := runScratch(t, Config{Collectives: cc}, perRank); len(timed) == 0 {
		t.Fatal("scratch fallback produced no timed trace")
	}
}

func TestForkedRunCkptMembers(t *testing.T) {
	// A group diverging only in its analytic checkpoint policy shares the
	// full trace: each member inherits the whole simulation and applies its
	// own waste algebra.
	perRank := perRankActions(t, figure1Trace, 4)
	total := 0
	for _, actions := range perRank {
		total += len(actions)
	}
	plan, ok, err := PlanPrefix(4, false, visitOf(perRank))
	if err != nil || !ok || plan.Actions != int64(total) {
		t.Fatalf("PlanPrefix: ok=%v plan=%+v err=%v, want all %d actions", ok, plan, err, total)
	}
	donorB, depl := paperSetup(t, 4)
	pr, err := RunPrefix(donorB, depl, Config{}, sliceSources(perRank),
		PrefixOptions{Cuts: plan.Cuts, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}

	for mi, spec := range []string{"", "60/5", "30/2/4/20"} {
		var ck *Ckpt
		if spec != "" {
			if ck, err = ParseCkpt(spec); err != nil {
				t.Fatal(err)
			}
		}
		want, wantTimed := runScratch(t, Config{Ckpt: ck}, perRank)
		mb, _ := paperSetup(t, 4)
		var buf bytes.Buffer
		tw := NewTimedTraceWriter(&buf)
		got, err := pr.RunForked(mb, Config{Ckpt: ck, TimedTracer: tw}, sliceSources(perRank))
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got.SimulatedTime != want.SimulatedTime {
			t.Errorf("member %d (ckpt=%s): forked %.17g != scratch %.17g",
				mi, spec, got.SimulatedTime, want.SimulatedTime)
		}
		if (got.Resilience == nil) != (want.Resilience == nil) {
			t.Errorf("member %d: resilience presence mismatch", mi)
		} else if got.Resilience != nil && *got.Resilience != *want.Resilience {
			t.Errorf("member %d: resilience %+v != %+v", mi, got.Resilience, want.Resilience)
		}
		if !bytes.Equal(buf.Bytes(), wantTimed) {
			t.Errorf("member %d: forked timed trace differs from scratch", mi)
		}
	}
}

func TestForkedRunDegradedPlatformMatchesScratch(t *testing.T) {
	// Degradation windows are re-injected into every member kernel at the
	// same absolute instants, so a forked faulted (non-fail-stop) group must
	// still be bit-equal.
	fs, err := platform.ParseFaultSpec("cpu:0.5@0.0001-0.005,bw:0.25@0.0002-0.01")
	if err != nil {
		t.Fatal(err)
	}
	perRank := perRankActions(t, forkGroupTrace, 4)
	plan, ok, err := PlanPrefix(4, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	donorB, depl := paperSetup(t, 4)
	pr, err := RunPrefix(donorB, depl, Config{Faults: fs}, sliceSources(perRank),
		PrefixOptions{Cuts: plan.Cuts, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for mi, cc := range []coll.Config{{}, coll.MustParseSpec("binomial")} {
		want, wantTimed := runScratch(t, Config{Collectives: cc, Faults: fs}, perRank)
		mb, _ := paperSetup(t, 4)
		var buf bytes.Buffer
		tw := NewTimedTraceWriter(&buf)
		got, err := pr.RunForked(mb, Config{Collectives: cc, Faults: fs, TimedTracer: tw}, sliceSources(perRank))
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got.SimulatedTime != want.SimulatedTime || !bytes.Equal(buf.Bytes(), wantTimed) {
			t.Errorf("member %d: degraded fork diverged (%.17g vs %.17g)",
				mi, got.SimulatedTime, want.SimulatedTime)
		}
	}
}

func TestForkedRunUnsafeOverlapDetected(t *testing.T) {
	// Two ranks folded onto one host with deliberately skewed cuts: the
	// member's post-cut compute starts while the donor's prefix was still
	// using the shared host, so a from-scratch run would have seen contention
	// the fork cannot reproduce. The safety check must refuse.
	const doc = `p0 compute 1e4
p0 compute 1e9
p1 compute 1e9
p1 compute 1e4
`
	perRank := perRankActions(t, doc, 2)
	b, err := platform.BuildBordereau(2)
	if err != nil {
		t.Fatal(err)
	}
	depl, err := platform.RoundRobin(b.HostNames, 2, 2) // both ranks on one host
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPrefix(b, depl, Config{}, sliceSources(perRank),
		PrefixOptions{Cuts: []int{1, 1}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := platform.BuildBordereau(2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pr.RunForked(mb, Config{}, sliceSources(perRank))
	if !errors.Is(err, ErrForkUnsafe) {
		t.Fatalf("overlapping forked run accepted (err=%v)", err)
	}
}

// TestForkedRunRefusesCompletionTie: p1 replays its whole trace after the
// cut, on its own host, and its compute completes at the very instant p0's
// prefix compute did. No resource overlaps, but the merged record order at
// that instant is ambiguous, so a member of a recording donor must refuse;
// without records there is nothing to merge and the member forks.
func TestForkedRunRefusesCompletionTie(t *testing.T) {
	perRank := perRankActions(t, "p0 compute 1e9\np0 compute 1e6\np1 compute 1e9\n", 2)
	for _, record := range []bool{true, false} {
		b, depl := paperSetup(t, 2)
		pr, err := RunPrefix(b, depl, Config{}, sliceSources(perRank),
			PrefixOptions{Cuts: []int{1, 0}, RecordTrace: record})
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := paperSetup(t, 2)
		_, err = pr.RunForked(mb, Config{}, sliceSources(perRank))
		if record && !errors.Is(err, ErrForkUnsafe) {
			t.Fatalf("recorded prefix: completion tie accepted (err=%v)", err)
		}
		if !record && err != nil {
			t.Fatalf("unrecorded prefix: %v", err)
		}
	}
}

// TestForkRecorderResourceNumbering pins the horizon numbering: hosts by
// ID, then the route walk's declared links, then one loopback per host, so a
// host, a link and a loopback never share a slot.
func TestForkRecorderResourceNumbering(t *testing.T) {
	b, err := platform.BuildBordereau(2)
	if err != nil {
		t.Fatal(err)
	}
	depl, err := platform.RoundRobin(b.HostNames, 3, 2) // p0, p1 share a host
	if err != nil {
		t.Fatal(err)
	}
	k := b.Kernel
	rec := newForkRecorder(k, depl)
	nh, nl := int32(k.Hosts()), int32(k.Links())
	if got := resourceCount(k); got != int(2*nh+nl) {
		t.Fatalf("resourceCount = %d, want %d", got, 2*nh+nl)
	}
	h0 := k.Host(depl.Processes[0].Host)
	if got := rec.resources(false, "p0", h0.Name, nil); !slices.Equal(got, []int32{int32(h0.ID())}) {
		t.Errorf("compute on %s: %v, want its host ID", h0.Name, got)
	}
	if got := rec.resources(true, "p0", "p1", nil); !slices.Equal(got, []int32{nh + nl + int32(h0.ID())}) {
		t.Errorf("same-host transfer: %v, want the loopback of host %d", got, h0.ID())
	}
	got := rec.resources(true, "p0", "p2", nil)
	if len(got) == 0 {
		t.Fatal("cross-host transfer crossed no link")
	}
	for _, id := range got {
		if id < nh || id >= nh+nl {
			t.Errorf("cross-host transfer: resource %d outside the declared links [%d,%d)", id, nh, nh+nl)
		}
	}
	if rec.unsafe {
		t.Fatal("deployment procs refused")
	}
}

// TestForkedRunRefusesMismatchedPlatform: the donor's usage horizons are
// indexed by resource number, so a member built from a platform that numbers
// a different resource count is refused as unsafe before it runs, never
// indexed out of range.
func TestForkedRunRefusesMismatchedPlatform(t *testing.T) {
	perRank := perRankActions(t, forkGroupTrace, 4)
	plan, ok, err := PlanPrefix(4, true, visitOf(perRank))
	if err != nil || !ok {
		t.Fatalf("PlanPrefix: ok=%v err=%v", ok, err)
	}
	donorB, depl := paperSetup(t, 4)
	pr, err := RunPrefix(donorB, depl, Config{}, sliceSources(perRank),
		PrefixOptions{Cuts: plan.Cuts, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := platform.BuildBordereau(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	_, err = pr.RunForked(bigger, Config{TimedTracer: tw}, sliceSources(perRank))
	if !errors.Is(err, ErrForkUnsafe) {
		t.Fatalf("member on a 5-host platform accepted (err=%v)", err)
	}
	if tw.Lines() != 0 {
		t.Fatalf("refused member streamed %d records", tw.Lines())
	}
}

func TestRunPrefixRejectsUnforkableConfig(t *testing.T) {
	perRank := perRankActions(t, figure1Trace, 4)
	b, d := paperSetup(t, 4)
	_, err := RunPrefix(b, d, Config{Registry: Default()}, sliceSources(perRank),
		PrefixOptions{Cuts: []int{3, 3, 3, 3}})
	if err == nil {
		t.Fatal("custom-registry config accepted as donor")
	}
}

// TestRunPrefixRefusesUnquiescedDonor bypasses the planner: with cuts {1, 0}
// p0's eager send lands in the prefix but p1's matching recv does not, so
// the donor parks with the send queued in the pair's anonymous mailbox. The
// donor must refuse to quiesce, naming the mailbox by its ID.
func TestRunPrefixRefusesUnquiescedDonor(t *testing.T) {
	perRank := perRankActions(t, "p0 send p1 1e3\np1 recv p0\n", 2)
	b, d := paperSetup(t, 2)
	_, err := RunPrefix(b, d, Config{}, sliceSources(perRank), PrefixOptions{Cuts: []int{1, 0}})
	if err == nil || !strings.Contains(err.Error(), "did not quiesce") {
		t.Fatalf("unmatched prefix send accepted (err=%v)", err)
	}
	// The pair's mailbox is the first the kernel allocated.
	if !strings.Contains(err.Error(), "mailbox 0") {
		t.Fatalf("error %q does not name the mailbox", err)
	}
}
