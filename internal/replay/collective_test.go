package replay

import (
	"bytes"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// collectiveDoc builds a trace where all n ranks run the same collective
// sequence.
func collectiveDoc(n int, lines ...string) string {
	var sb strings.Builder
	for r := 0; r < n; r++ {
		p := "p" + string(rune('0'+r))
		for _, l := range lines {
			sb.WriteString(p + " " + l + "\n")
		}
	}
	return sb.String()
}

// replayCollectives runs the doc under the given collective config and
// returns makespan plus timed trace.
func replayCollectives(t *testing.T, doc string, n int, cc coll.Config) (float64, []byte) {
	t.Helper()
	b, d := paperSetup(t, n)
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	cfg := Config{Model: smpi.Default(), TimedTracer: tw, Collectives: cc}
	res, err := RunActions(b, d, cfg, perRankActions(t, doc, n))
	if err != nil {
		t.Fatalf("coll=%s: %v", cc, err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return res.SimulatedTime, buf.Bytes()
}

// TestNewCollectiveActionsReplay: the schedule-decomposed gather, allGather,
// allToAll and scatter actions replay to completion with a positive
// makespan, under every algorithm each supports.
func TestNewCollectiveActionsReplay(t *testing.T) {
	const n = 5 // non-power-of-two worlds exercise the tree edge cases
	doc := collectiveDoc(n,
		"comm_size 5",
		"gather 4096",
		"allGather 4096",
		"allToAll 2048",
		"scatter 8192",
		"barrier",
	)
	for _, spec := range []string{"", "linear", "binomial", "ring", "auto"} {
		cc := coll.MustParseSpec(spec)
		simTime, timed := replayCollectives(t, doc, n, cc)
		if simTime <= 0 {
			t.Fatalf("coll=%q: non-positive simulated time", spec)
		}
		if len(timed) == 0 {
			t.Fatalf("coll=%q: empty timed trace", spec)
		}
	}
}

// TestBinomialBcastBeatsLinearStar: with enough ranks the log-depth tree
// must predict a different (shorter) makespan than the serialised star —
// the what-if signal the whole axis exists for.
func TestBinomialBcastBeatsLinearStar(t *testing.T) {
	const n = 8
	doc := collectiveDoc(n, "comm_size 8", "bcast 1e6")
	linTime, _ := replayCollectives(t, doc, n, coll.Config{})
	binTime, _ := replayCollectives(t, doc, n, coll.MustParseSpec("bcast=binomial"))
	if binTime >= linTime {
		t.Fatalf("binomial bcast (%g) not faster than linear star (%g)", binTime, linTime)
	}
}

// TestCollectiveConfigDeterministic: repeated replays under each non-default
// algorithm are bit-identical (the sweep engine's requirement).
func TestCollectiveConfigDeterministic(t *testing.T) {
	const n = 4
	doc := collectiveDoc(n, "allReduce 5e4 1e5", "barrier", "allGather 1024")
	for _, spec := range []string{"binomial", "allReduce=ring", "auto"} {
		cc := coll.MustParseSpec(spec)
		t1, b1 := replayCollectives(t, doc, n, cc)
		t2, b2 := replayCollectives(t, doc, n, cc)
		if t1 != t2 || !bytes.Equal(b1, b2) {
			t.Fatalf("coll=%q: non-deterministic replay (%g vs %g)", spec, t1, t2)
		}
	}
}

// TestRecycledRoundTableGrowth: pairwise allToAll rounds use a different
// n-pair set per round, so the collective pair table meets all n(n-1)
// directed pairs and grows past its initial slots while bcasts and a ring
// allGather keep reusing entries. A growth that lost or moved an entry
// would hand one side of a pair a fresh mailbox and deadlock the replay;
// after growth the replay must still complete, identically on a repeat.
func TestRecycledRoundTableGrowth(t *testing.T) {
	const n = 8
	var lines []string
	for i := 0; i < 6; i++ {
		lines = append(lines, "allToAll 4096", "bcast 1e4")
	}
	doc := collectiveDoc(n, append(lines, "allGather 2048")...)
	cc := coll.MustParseSpec("allGather=ring")
	var captured *Proc
	reg := Default()
	base, _ := reg.Lookup(trace.AllToAll)
	reg.Register("allToAll", func(p *Proc, a trace.Action) error {
		captured = p
		return base(p, a)
	})
	run := func() (float64, []byte) {
		b, d := paperSetup(t, n)
		var buf bytes.Buffer
		tw := NewTimedTraceWriter(&buf)
		cfg := Config{Model: smpi.Default(), Registry: reg, TimedTracer: tw, Collectives: cc}
		res, err := RunActions(b, d, cfg, perRankActions(t, doc, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		return res.SimulatedTime, buf.Bytes()
	}
	t1, tr1 := run()
	if got := len(captured.world.coll.keys); got <= 64 {
		t.Fatalf("collective pair table has %d slots, want growth past its initial 64", got)
	}
	if t2, tr2 := run(); t1 != t2 || !bytes.Equal(tr1, tr2) {
		t.Fatalf("replay after round-table growth not deterministic: %v vs %v", t1, t2)
	}
}

// TestReplayWaitAll: waitAll drains the whole pending-request FIFO, however
// many requests are outstanding, and subsequent waits correctly fail.
func TestReplayWaitAll(t *testing.T) {
	const doc = `p0 Irecv p1
p0 Irecv p1
p0 Irecv p1
p0 compute 1e6
p0 waitAll
p1 Isend p0 2e6
p1 Isend p0 4096
p1 Isend p0 3e6
`
	b, d := paperSetup(t, 2)
	res, err := RunActions(b, d, Config{}, perRankActions(t, doc, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= 0 {
		t.Fatal("non-positive simulated time")
	}
	if res.Actions != 8 {
		t.Fatalf("actions = %d, want 8", res.Actions)
	}
}

// TestReplayWaitAllWithoutRequestsFails is the handler's error path: a
// traced waitAll with an empty request FIFO is a trace inconsistency and
// must be diagnosed, not silently ignored.
func TestReplayWaitAllWithoutRequestsFails(t *testing.T) {
	b, d := paperSetup(t, 1)
	perRank := [][]trace.Action{{{Proc: 0, Type: trace.WaitAll, Peer: -1}}}
	_, err := RunActions(b, d, Config{}, perRank)
	if err == nil || !strings.Contains(err.Error(), "waitAll") {
		t.Fatalf("err = %v, want waitAll diagnostic", err)
	}
}

// TestReplayWaitAllThenWaitFails: after a waitAll drained the FIFO, a stray
// wait must fail exactly like one with no preceding Irecv.
func TestReplayWaitAllThenWaitFails(t *testing.T) {
	b, d := paperSetup(t, 2)
	perRank := [][]trace.Action{
		{
			{Proc: 0, Type: trace.Irecv, Peer: 1},
			{Proc: 0, Type: trace.WaitAll, Peer: -1},
			{Proc: 0, Type: trace.Wait, Peer: -1},
		},
		{{Proc: 1, Type: trace.Isend, Peer: 0, Volume: 1024}},
	}
	_, err := RunActions(b, d, Config{}, perRank)
	if err == nil || !strings.Contains(err.Error(), "no pending request") {
		t.Fatalf("err = %v, want pending-request diagnostic", err)
	}
}

// captureWorld replays doc on n ranks with a registry hook on compute and
// returns the world the run left behind; doc must give some rank a compute
// action.
func captureWorld(t *testing.T, doc string, n int, cc coll.Config) *world {
	t.Helper()
	var captured *Proc
	reg := Default()
	base, _ := reg.Lookup(trace.Compute)
	reg.Register("compute", func(p *Proc, a trace.Action) error {
		captured = p
		return base(p, a)
	})
	b, d := paperSetup(t, n)
	if _, err := RunActions(b, d, Config{Registry: reg, Collectives: cc}, perRankActions(t, doc, n)); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("capture hook never ran")
	}
	return captured.world
}

// formatActions renders, for every rank of an n-rank world, the given
// actions of that rank followed by a compute burst (the capture hook's
// trigger).
func formatActions(n int, actions ...trace.Action) string {
	actions = append(actions[:len(actions):len(actions)], trace.Action{Type: trace.Compute, Peer: -1, Volume: 1})
	var sb strings.Builder
	for r := 0; r < n; r++ {
		for _, a := range actions {
			a.Proc = r
			sb.WriteString(a.Format())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestCollectiveRoundWindowRecycles pins the allocation story of the
// collective mailboxes: a pair's messages of every collective meet in one
// mailbox, so the table holds the pairs the schedules use, however many
// collectives the trace runs.
func TestCollectiveRoundWindowRecycles(t *testing.T) {
	const n, colls = 4, 50
	var acts []trace.Action
	for i := 0; i < colls; i++ {
		acts = append(acts,
			trace.Action{Type: trace.AllReduce, Peer: -1, Volume: 1e4, Volume2: 1e4},
			trace.Action{Type: trace.Bcast, Peer: -1, Volume: 1e4})
	}
	w := captureWorld(t, formatActions(n, acts...), n, coll.Config{})
	// The linear star moves i->0 and 0->i for every i > 0: 2(n-1) pairs.
	if w.coll.used != 2*(n-1) {
		t.Fatalf("collective pair table holds %d mailboxes after %d collectives, want %d",
			w.coll.used, 2*colls, 2*(n-1))
	}
	if w.p2p.used != 0 {
		t.Fatalf("collectives created %d point-to-point mailboxes", w.p2p.used)
	}
}

// TestRingCollectivePairsLinear: ring collectives run 2(n-1) rounds over
// the same neighbour pairs, so the collective table holds exactly the
// distinct directed pairs the ranks' schedules name, O(n), not n pairs per
// round.
func TestRingCollectivePairsLinear(t *testing.T) {
	const n = 64
	var acts []trace.Action
	for i := 0; i < 3; i++ {
		acts = append(acts, trace.Action{Type: trace.AllReduce, Peer: -1, Volume: 1e5, Volume2: 1e3})
	}
	for i := 0; i < 2; i++ {
		acts = append(acts, trace.Action{Type: trace.AllGather, Peer: -1, Volume: 1e5})
	}
	w := captureWorld(t, formatActions(n, acts...), n, coll.MustParseSpec("allReduce=ring,allGather=ring"))

	pairs := make(map[[2]int]bool)
	for r := 0; r < n; r++ {
		for _, kind := range []coll.Kind{coll.KindAllReduce, coll.KindAllGather} {
			for _, s := range coll.AppendSchedule(nil, kind, coll.Ring, r, n, 1e5, 1e3) {
				if s.Op == coll.OpSend || s.Op == coll.OpShift {
					pairs[[2]int{r, s.To}] = true
				}
				if s.Op == coll.OpRecv || s.Op == coll.OpShift {
					pairs[[2]int{s.From, r}] = true
				}
			}
		}
	}
	if w.coll.used != len(pairs) {
		t.Fatalf("collective pair table holds %d mailboxes, schedules name %d distinct pairs",
			w.coll.used, len(pairs))
	}
	if len(pairs) > 2*n {
		t.Fatalf("ring schedules name %d distinct pairs on %d ranks, want O(n)", len(pairs), n)
	}
}
