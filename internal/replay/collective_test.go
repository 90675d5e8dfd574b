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
// n-pair set per round, and a one-round bcast between them rotates which
// round a recycled struct serves next, so recycled round structs accumulate
// distinct keys until their pair tables grow. A growth that lost or moved
// an entry would hand one side of a pair a fresh mailbox and deadlock the
// replay; after growth the replay must still complete, identically on a
// repeat.
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
	grown := false
	for _, r := range captured.world.free {
		grown = grown || len(r.pairs.keys) > 64
	}
	if !grown {
		t.Fatal("no recycled round table grew past its initial 64 slots")
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

// TestCollectiveRoundWindowRecycles pins the allocation story of the round
// table: once every rank has passed a collective, its rounds retire to the
// free list and later collectives reuse them — the live window stays at the
// rank skew, it does not grow with the trace.
func TestCollectiveRoundWindowRecycles(t *testing.T) {
	const n, colls = 4, 50
	var sb strings.Builder
	for r := 0; r < n; r++ {
		for i := 0; i < colls; i++ {
			sb.WriteString(trace.Action{Proc: r, Type: trace.AllReduce, Peer: -1,
				Volume: 1e4, Volume2: 1e4}.Format())
			sb.WriteByte('\n')
			sb.WriteString(trace.Action{Proc: r, Type: trace.Bcast, Peer: -1, Volume: 1e4}.Format())
			sb.WriteByte('\n')
		}
	}
	// Run through the public API, then inspect the world the run left
	// behind via a registry hook that captures one Proc.
	var captured *Proc
	reg := Default()
	base, _ := reg.Lookup(trace.Compute)
	reg.Register("compute", func(p *Proc, a trace.Action) error {
		captured = p
		return base(p, a)
	})
	doc := sb.String()
	for r := 0; r < n; r++ {
		doc += trace.Action{Proc: r, Type: trace.Compute, Peer: -1, Volume: 1}.Format() + "\n"
	}
	b, d := paperSetup(t, n)
	if _, err := RunActions(b, d, Config{Registry: reg}, perRankActions(t, doc, n)); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("capture hook never ran")
	}
	w := captured.world
	// 50 allReduces (2 rounds) + 50 bcasts (1 round) = 150 rounds total;
	// after the run every round has been released.
	if w.base != 150 {
		t.Fatalf("window base = %d, want 150 rounds retired", w.base)
	}
	if live := len(w.rounds) - w.head; live != 0 {
		t.Fatalf("%d rounds still live after the run", live)
	}
	// The free list holds the recycled structs; far fewer than the 150
	// rounds the trace consumed, or recycling is not happening.
	if len(w.free) == 0 || len(w.free) >= colls {
		t.Fatalf("free list holds %d round structs (want 1..%d)", len(w.free), colls-1)
	}
}
