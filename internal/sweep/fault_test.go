package sweep

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// within reports whether a and b agree to the relative tolerance tol.
func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= tol*m
}

// TestParseFaultAndCkptLists covers the two resilience axes' list syntax:
// semicolon-separated specs with "none" kept as the clean cell.
func TestParseFaultAndCkptLists(t *testing.T) {
	fs, err := ParseFaultList("none;host:1@5;hosts:25%@10,mtbf:3600")
	if err != nil || len(fs) != 3 {
		t.Fatalf("ParseFaultList = %v, %v", fs, err)
	}
	if fs[0] != nil {
		t.Fatal("a none entry must stay as the fault-free cell")
	}
	if fs[1] == nil || len(fs[1].HostFails) != 1 || fs[1].HostFails[0].At != 5 {
		t.Fatalf("fault entry 1 = %+v", fs[1])
	}
	if fs[2] == nil || fs[2].MTBF != 3600 || len(fs[2].PctFails) != 1 {
		t.Fatalf("fault entry 2 = %+v", fs[2])
	}
	if _, err := ParseFaultList("host:1"); err == nil {
		t.Fatal("bad fault spec must fail")
	}
	if fs, err := ParseFaultList(""); err != nil || fs != nil {
		t.Fatalf("empty fault list = %v, %v", fs, err)
	}

	cks, err := ParseCkptList("none;30/5;60/5/10/30;")
	if err != nil || len(cks) != 3 {
		t.Fatalf("ParseCkptList = %v, %v", cks, err)
	}
	if cks[0] != nil || cks[1].Interval != 30 || cks[1].Cost != 5 || cks[2].Down != 30 {
		t.Fatalf("ckpt entries = %v", cks)
	}
	if _, err := ParseCkptList("abc"); err == nil {
		t.Fatal("bad ckpt spec must fail")
	}
	if cks, err := ParseCkptList(""); err != nil || cks != nil {
		t.Fatalf("empty ckpt list = %v, %v", cks, err)
	}
}

// TestSweepFaultAxisDeterministicAcrossWorkers extends the engine's core
// determinism guarantee to the resilience axes: a 2x2 {fault} x {ckpt} grid
// over LU class S replayed at workers=1 and workers=NumCPU must agree
// byte-for-byte — timed traces, abort diagnoses and waste accountings alike.
func TestSweepFaultAxisDeterministicAcrossWorkers(t *testing.T) {
	const procs = 4
	ts := luTraces(t, npb.ClassS, procs)
	fault, err := platform.ParseFaultSpec("host:1@0.01")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := replay.ParseCkpt("0.02/0.002/0.001/0.001")
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{
		Faults: []*platform.FaultSpec{nil, fault},
		Ckpt:   []*replay.Ckpt{nil, ck},
	}
	if grid.Size() != 4 {
		t.Fatalf("grid expands to %d scenarios, want 4", grid.Size())
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
		if s.Err != p.Err {
			t.Fatalf("scenario %d (%s): error %q (serial) != %q (parallel)", i, s.Name, s.Err, p.Err)
		}
		if s.Err != "" {
			continue
		}
		if s.SimulatedTime != p.SimulatedTime || s.Actions != p.Actions {
			t.Fatalf("scenario %d (%s): serial %g/%d != parallel %g/%d",
				i, s.Name, s.SimulatedTime, s.Actions, p.SimulatedTime, p.Actions)
		}
		if !bytes.Equal(s.TimedTrace, p.TimedTrace) {
			t.Fatalf("scenario %d (%s): timed traces differ across worker counts", i, s.Name)
		}
		if !reflect.DeepEqual(s.Resilience, p.Resilience) {
			t.Fatalf("scenario %d (%s): resilience %+v != %+v", i, s.Name, s.Resilience, p.Resilience)
		}
	}

	// Expansion order: ckpt outermost, then fault. Check each cell's policy.
	clean, abort, ride0, ride1 := &serial.Scenarios[0], &serial.Scenarios[1],
		&serial.Scenarios[2], &serial.Scenarios[3]
	if clean.Err != "" || clean.Resilience != nil {
		t.Fatalf("fault-free cell: err=%q resilience=%+v", clean.Err, clean.Resilience)
	}
	if !strings.Contains(abort.Name, "fault=host:1@0.01") ||
		!strings.Contains(abort.Err, "lost to fail-stop faults") {
		t.Fatalf("abort cell %q: err = %q, want a FailedRanksError diagnosis", abort.Name, abort.Err)
	}
	if !strings.Contains(ride1.Name, "ckpt=0.02/0.002/0.001/0.001") {
		t.Fatalf("ckpt cell name %q misses the protocol", ride1.Name)
	}
	if ride0.Resilience == nil || ride0.Resilience.Failures != 0 || ride0.Resilience.Checkpoints == 0 {
		t.Fatalf("ckpt-without-fault cell resilience = %+v", ride0.Resilience)
	}
	r := ride1.Resilience
	if r == nil || r.Failures != 1 {
		t.Fatalf("ckpt+fault cell resilience = %+v, want exactly 1 failure", r)
	}
	if r.Effective <= ride0.Resilience.Effective {
		t.Fatalf("a failure must not come for free: effective %g <= fault-free-with-ckpt %g",
			r.Effective, ride0.Resilience.Effective)
	}
	// The waste identity holds exactly in the walker's own accumulation
	// order; re-summing the parts here may differ by rounding, so compare
	// to a relative ulp-scale tolerance.
	if got := r.FaultFree + r.CkptTime + r.Wasted + r.Downtime; !within(got, r.Effective, 1e-12) {
		t.Fatalf("waste identity broken: %g != effective %g", got, r.Effective)
	}
	if clean.SimulatedTime != r.FaultFree {
		t.Fatalf("fault-free makespan %g != resilience baseline %g", clean.SimulatedTime, r.FaultFree)
	}

	// The rendered table grows the resilience columns, with "-" for cells
	// without an accounting.
	var tab bytes.Buffer
	serial.RenderTable(&tab)
	out := tab.String()
	for _, want := range []string{"fault-free", "wasted", "recomputed", "fails",
		"fault=host:1@0.01", "lost to fail-stop faults"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table misses %q:\n%s", want, out)
		}
	}
}

// TestSweepFaultCellReleasesRanks: an abort-policy fault cell ends with the
// surviving ranks blocked on their dead peers. Once the sweep returns its
// diagnosed row, neither a pool worker nor any of those ranks may still be
// alive.
func TestSweepFaultCellReleasesRanks(t *testing.T) {
	ts := luTraces(t, npb.ClassS, 4)
	fault, err := platform.ParseFaultSpec("host:1@0")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(4, 1),
		Grid:     Grid{Faults: []*platform.FaultSpec{fault}},
		Traces:   ts,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 1 || !strings.Contains(res.Scenarios[0].Err, "lost to fail-stop faults") {
		t.Fatalf("fault cell rows = %+v, want one abort diagnosis", res.Scenarios)
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSweepPanickingScenarioIsIsolated wires a handler that deliberately
// panics on the scaled-up cell of a power sweep: that scenario must report
// the panic as its error while its siblings complete normally — a crashing
// scenario never takes down the sweep.
func TestSweepPanickingScenarioIsIsolated(t *testing.T) {
	const procs = 4
	ts := luTraces(t, npb.ClassS, procs)
	base := platform.BordereauWithCores(procs, 1)
	b, err := platform.Instantiate(base)
	if err != nil {
		t.Fatal(err)
	}
	baseSpeed := b.Kernel.Host(b.HostNames[0]).Speed

	def, err := replay.Default().Lookup(trace.Compute)
	if err != nil {
		t.Fatal(err)
	}
	reg := replay.Default()
	reg.Register("compute", func(p *replay.Proc, a trace.Action) error {
		if p.Sim.Host().Speed > 1.5*baseSpeed {
			panic("deliberate test panic on the fast platform")
		}
		return def(p, a)
	})

	res, err := Run(context.Background(), &Config{
		Platform: base,
		Grid:     Grid{PowerScale: []float64{1, 2}},
		Traces:   ts,
		Registry: reg,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(res.Scenarios))
	}
	ok, boom := &res.Scenarios[0], &res.Scenarios[1]
	if ok.Err != "" || ok.SimulatedTime <= 0 {
		t.Fatalf("sibling scenario (%s) did not complete: err=%q t=%g", ok.Name, ok.Err, ok.SimulatedTime)
	}
	if !strings.Contains(boom.Err, "panicked") ||
		!strings.Contains(boom.Err, "deliberate test panic") {
		t.Fatalf("panicking scenario (%s) err = %q, want the panic surfaced", boom.Name, boom.Err)
	}
}

// TestSafeRunTaskRecoversWorkerPanic exercises the pool-side recover
// directly: a panic raised in the worker goroutine itself (here a nil
// deployment dereference) becomes the scenario's error.
func TestSafeRunTaskRecoversWorkerPanic(t *testing.T) {
	sc := Scenario{LatencyScale: 1, BandwidthScale: 1, PowerScale: 1, Fold: 1}
	out := safeRunTask(&Config{Platform: disjointPlatform()}, smpi.Default(), sc, nil, nil)
	if out.err == nil || !strings.Contains(out.err.Error(), "panicked") {
		t.Fatalf("safeRunTask error = %v, want a recovered panic", out.err)
	}
}
