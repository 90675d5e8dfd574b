package replay

import (
	"bytes"
	"testing"

	"tireplay/internal/platform"
	"tireplay/internal/smpi"
)

// TestReplayOnGeneratedTopology replays the stress trace on each zoo member:
// the computed routers must carry a full replay (rendezvous, collectives,
// waits) to completion deterministically.
func TestReplayOnGeneratedTopology(t *testing.T) {
	perRank := perRankActions(t, internStressTrace, 4)
	for _, spec := range []string{"fat-tree:4", "torus:2x2", "dragonfly:2x2x1"} {
		ts, err := platform.ParseTopo(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (float64, []byte) {
			b, err := ts.Build()
			if err != nil {
				t.Fatal(err)
			}
			d, err := platform.RoundRobin(b.HostNames, len(perRank), 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tw := NewTimedTraceWriter(&buf)
			res, err := RunActions(b, d, Config{Model: smpi.Default(), TimedTracer: tw}, perRank)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			return res.SimulatedTime, buf.Bytes()
		}
		t1, tr1 := run()
		t2, tr2 := run()
		if t1 != t2 || !bytes.Equal(tr1, tr2) {
			t.Fatalf("%s: two identical replays disagree (%v vs %v)", spec, t1, t2)
		}
		if t1 <= 0 || len(tr1) == 0 {
			t.Fatalf("%s: degenerate replay (makespan %v, %d trace bytes)", spec, t1, len(tr1))
		}
	}
}
