package sweep

import (
	"bytes"
	"context"
	"testing"

	"tireplay/internal/platform"
)

// FuzzScenarioEquivalence is the sweep's equivalence oracle: the same grid
// must give the same rows, errors, timed traces, profiles and metrics JSON
// whatever the execution toggles. It maps its input to a coll x fault x
// ckpt grid over the 4-rank forkSweepTrace and compares sharing off on one
// worker against sharing on across two.
func FuzzScenarioEquivalence(f *testing.F) {
	for _, seed := range [][3]string{
		// A protocol that does not converge replays first in its group, so
		// its siblings must replay alone; then the same protocol last.
		{"linear", "mtbf:0.0001,seed:3", "0.01/0;0.000001/0;none"},
		{"linear", "mtbf:0.0001,seed:3", "none;0.000001/0;0.01/0"},
		// A fail-stop under the abort policy replays alone, also when a
		// protocol cell of the same run comes first.
		{"linear;binomial", "host:1@0.001", "none;60/5"},
		{"linear", "host:1@0.001", "60/5;none"},
		// Degradation windows are part of the shared run.
		{"allReduce=ring", "none;bw:0.5@0.0001-0.005;cpu:0.25@0.001-0.002", "none;60/5"},
		// Duplicated axis entries.
		{"linear;linear", "none;none", "60/5;60/5;none"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	ts := forkTraces(f, forkSweepTrace, 4)
	base := platform.BordereauWithCores(4, 1)
	f.Fuzz(func(t *testing.T, colls, faults, ckpts string) {
		grid, err := GridSpec{Coll: colls, Fault: faults, Ckpt: ckpts}.Parse()
		if err != nil || !fuzzableGrid(grid) {
			t.Skip()
		}
		run := func(fork bool, workers int) *Result {
			res, err := Run(context.Background(), &Config{
				Platform: base, Grid: grid, Traces: ts, Workers: workers,
				Timed: true, Profile: true, Metrics: true, Fork: fork,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		alone, shared := run(false, 1), run(true, 2)
		compareSweeps(t, "fork=off workers=1 vs fork=on workers=2", alone, shared)
		if a, s := metricsJSON(t, alone), metricsJSON(t, shared); !bytes.Equal(a, s) {
			t.Fatalf("metrics JSON differs:\n%s\nvs\n%s", a, s)
		}
	})
}

// fuzzableGrid bounds a fuzzed grid to the oracle's menu: at most 3
// collective settings, 3 fault entries built from degradation windows, host
// fail-stops and an MTBF stream, and 4 protocols of interval and cost alone
// — 48 cells in all. The bounds on windows and intervals keep every cell
// fast: the analytic walker steps once per checkpoint, and per absorbed
// failure in a restart window.
func fuzzableGrid(g Grid) bool {
	if len(g.Coll) > 3 || len(g.Faults) > 3 || len(g.Ckpt) > 4 || g.Size() > 48 {
		return false
	}
	for _, fs := range g.Faults {
		if fs == nil {
			continue
		}
		if len(fs.PctFails)+len(fs.LinkFails) > 0 {
			return false
		}
		for _, d := range fs.Degrades {
			if d.Factor < 0.01 || d.Factor > 100 {
				return false
			}
		}
	}
	for _, ck := range g.Ckpt {
		if ck != nil && (ck.Interval < 1e-6 || ck.Restart != 0 || ck.Down != 0) {
			return false
		}
	}
	return true
}
