package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/trace"
)

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestZeroMakespan covers the empty and instantaneous traces: no windows,
// no phases, zero efficiencies, and no NaN anywhere.
func TestZeroMakespan(t *testing.T) {
	rep := AnalyzeSink(internedSink("p0", "p1"), Options{})
	if rep.Makespan != 0 || rep.Events != 0 {
		t.Fatalf("empty trace: makespan=%g events=%d", rep.Makespan, rep.Events)
	}
	if len(rep.Windows) != 0 || len(rep.Phases) != 0 {
		t.Fatalf("zero-makespan run grew windows/phases: %d/%d", len(rep.Windows), len(rep.Phases))
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("pre-registered ranks missing: %d rows", len(rep.Ranks))
	}
	if e := rep.Summary; e.ParallelEff != 0 || e.CommEff != 0 {
		t.Fatalf("zero-makespan efficiencies: %+v", e)
	}

	// Zero-duration events keep the makespan at zero.
	s := replay.NewMetricsSink()
	s.Compute("p0", "h0", 0, 0, 0)
	rep = AnalyzeSink(s, Options{})
	if rep.Makespan != 0 || len(rep.Windows) != 0 {
		t.Fatalf("instantaneous trace: makespan=%g windows=%d", rep.Makespan, len(rep.Windows))
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if out := buf.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("zero-makespan render leaked NaN/Inf:\n%s", out)
	}
}

// TestEventStraddlingWindows pins the pro-rata clipping: an event spanning
// several windows contributes exactly its overlap to each, and the window
// columns sum back to the whole-run totals.
func TestEventStraddlingWindows(t *testing.T) {
	s := replay.NewMetricsSink()
	s.Compute("p0", "h0", 1e6, 1, 3) // spans [1,3) of a [0,4) run
	s.Comm("p0", "p1", 4096, 3, 4)
	rep := AnalyzeSink(s, Options{Windows: 2, Makespan: 4})
	if len(rep.Windows) != 2 {
		t.Fatalf("windows: %d", len(rep.Windows))
	}
	// Window 0 = [0,2): 1s of the compute. Window 1 = [2,4): the other 1s
	// plus the full transfer.
	w0, w1 := rep.Windows[0], rep.Windows[1]
	if !approx(w0.Eff.ParallelEff, 0.25) { // 1s useful on p0, 0 on p1, avg 0.5 over T=2
		t.Errorf("window 0 parallel eff = %g, want 0.25", w0.Eff.ParallelEff)
	}
	if w0.CommFraction != 0 {
		t.Errorf("window 0 comm fraction = %g, want 0", w0.CommFraction)
	}
	// Window 1 busy time: 1s useful + 1s transfer on each endpoint.
	if !approx(w1.CommFraction, 2.0/3.0) {
		t.Errorf("window 1 comm fraction = %g, want 2/3", w1.CommFraction)
	}
	var useful, transfer float64
	for _, b := range rep.Ranks {
		useful += b.Useful
		transfer += b.Transfer
	}
	if !approx(useful, 2) || !approx(transfer, 2) {
		t.Errorf("totals: useful %g (want 2), transfer %g (want 2, dual-attributed)", useful, transfer)
	}
}

// TestSingleEventWindow covers a window owning exactly one event, with
// every other window idle, and the resulting phase classification.
func TestSingleEventWindow(t *testing.T) {
	s := replay.NewMetricsSink()
	s.Compute("p0", "h0", 1e6, 2.0, 2.5)
	rep := AnalyzeSink(s, Options{Windows: 4, Makespan: 4})
	kinds := map[string]int{}
	for _, ph := range rep.Phases {
		kinds[ph.Kind] += ph.Windows
	}
	if kinds["compute"] != 1 || kinds["idle"] != 3 {
		t.Fatalf("phase windows: %v, want 1 compute + 3 idle", kinds)
	}
	w2 := rep.Windows[2] // [2,3): holds the whole event
	if !approx(w2.Eff.ParallelEff, 0.5) || !approx(w2.Eff.CommEff, 0.5) {
		t.Errorf("window 2 eff: %+v", w2.Eff)
	}
	for i, w := range rep.Windows {
		if i == 2 {
			continue
		}
		if w.Eff.ParallelEff != 0 {
			t.Errorf("idle window %d has parallel eff %g", i, w.Eff.ParallelEff)
		}
		// An idle window has maxU == 0; load balance degrades to 1 by
		// convention, never NaN.
		if w.Eff.LoadBalance != 1 {
			t.Errorf("idle window %d load balance %g, want 1", i, w.Eff.LoadBalance)
		}
	}
}

// internedSink returns an empty sink with the given process names
// pre-interned, as sweep does for every deployed process.
func internedSink(names ...string) *replay.MetricsSink {
	s := replay.NewMetricsSink()
	for _, n := range names {
		s.RankID(n)
	}
	return s
}

// TestRanksWithoutEvents pins the pre-registration path: ranks interned in
// the sink but without events appear as fully idle rows and drag the load
// balance down.
func TestRanksWithoutEvents(t *testing.T) {
	s := internedSink("p0", "p1", "p2")
	s.Compute("p0", "h0", 1e6, 0, 3)
	rep := AnalyzeSink(s, Options{Makespan: 3})
	if len(rep.Ranks) != 3 {
		t.Fatalf("rank rows: %d, want 3", len(rep.Ranks))
	}
	for _, b := range rep.Ranks[1:] {
		if b.Useful != 0 || b.Transfer != 0 || !approx(b.Wait, 3) {
			t.Errorf("idle rank %s: %+v", b.Rank, b)
		}
	}
	if !approx(rep.Summary.LoadBalance, 1.0/3.0) {
		t.Errorf("load balance = %g, want 1/3", rep.Summary.LoadBalance)
	}
	if !approx(rep.Summary.CommEff, 1) {
		t.Errorf("comm eff = %g, want 1", rep.Summary.CommEff)
	}
}

// TestPhaseDetection builds a run with a clear compute half and a clear
// communication half and checks the phase segmentation finds exactly that.
func TestPhaseDetection(t *testing.T) {
	s := replay.NewMetricsSink()
	for _, p := range []string{"p0", "p1"} {
		s.Compute(p, "h0", 1e6, 0, 5)
	}
	s.Comm("p0", "p1", 1e6, 5, 10)
	rep := AnalyzeSink(s, Options{Windows: 10, Makespan: 10})
	if len(rep.Phases) != 2 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	if rep.Phases[0].Kind != "compute" || rep.Phases[0].End != 5 || rep.Phases[0].Windows != 5 {
		t.Errorf("phase 0: %+v", rep.Phases[0])
	}
	if rep.Phases[1].Kind != "comm" || rep.Phases[1].Start != 5 {
		t.Errorf("phase 1: %+v", rep.Phases[1])
	}
	// The compute phase, analysed over its own extent, is fully efficient.
	if !approx(rep.Phases[0].Eff.ParallelEff, 1) {
		t.Errorf("compute phase parallel eff = %g", rep.Phases[0].Eff.ParallelEff)
	}
	// CommE = SerE x TransferE must hold wherever SerE is positive.
	for _, ph := range rep.Phases {
		if ph.Eff.SerEff > 0 && !approx(ph.Eff.CommEff, ph.Eff.SerEff*ph.Eff.TransferEff) {
			t.Errorf("phase %s: commE %g != serE %g x trfE %g",
				ph.Kind, ph.Eff.CommEff, ph.Eff.SerEff, ph.Eff.TransferEff)
		}
	}
}

// TestRankNaturalOrder pins the merged rank table's ordering: numeric
// suffixes compare numerically, so p2 precedes p10, and the merge by name
// across several sinks is stable.
func TestRankNaturalOrder(t *testing.T) {
	a := replay.NewMetricsSink()
	a.Compute("p10", "h", 1, 0, 1)
	a.Compute("p2", "h", 1, 0, 1)
	b := replay.NewMetricsSink()
	b.Compute("p1", "h", 1, 0, 1)
	b.Compute("p2", "h", 1, 0, 1) // merges with a's p2
	rep := Analyze([]*replay.MetricsSink{a, b}, Options{Makespan: 1})
	var names []string
	for _, r := range rep.Ranks {
		names = append(names, r.Rank)
	}
	want := []string{"p1", "p2", "p10"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("rank order %v, want %v", names, want)
	}
	if !approx(rep.Ranks[1].Useful, 2) {
		t.Fatalf("p2 did not merge across sinks: %+v", rep.Ranks[1])
	}
}

// TestAnalyzeMatchesProfileOnLU pins, on a real NPB LU trace, that the
// whole-run report agrees with the (fixed) legacy Profile: per-rank
// useful time equals ComputeTime bit-for-bit (same accumulator, same
// event order), and transfer equals SendTime+RecvTime up to summation
// rounding (the report folds both roles into one accumulator). The strict
// bit-equality pin on the raw columns is TestSinkMatchesProfile in
// internal/replay.
func TestAnalyzeMatchesProfileOnLU(t *testing.T) {
	const procs = 8
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassS, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	perRank := make([][]trace.Action, procs)
	for r := 0; r < procs; r++ {
		if perRank[r], err = mpi.Record(r, procs, prog); err != nil {
			t.Fatal(err)
		}
	}
	b, err := platform.BuildBordereauCustom(procs, 1, platform.BordereauPower)
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := replay.NewProfile()
	sink := replay.NewMetricsSink()
	res, err := replay.RunActions(b, d, replay.Config{TimedTracer: replay.Tee{prof, sink}}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeSink(sink, Options{Makespan: res.SimulatedTime})
	rows := map[string]Breakdown{}
	for _, r := range rep.Ranks {
		rows[r.Rank] = r
	}
	for _, pp := range prof.Processes() {
		r, ok := rows[pp.Name]
		if !ok {
			t.Fatalf("%s missing from report", pp.Name)
		}
		if r.Useful != pp.ComputeTime {
			t.Errorf("%s: useful %v != profile compute %v", pp.Name, r.Useful, pp.ComputeTime)
		}
		if !approx(r.Transfer, pp.SendTime+pp.RecvTime) {
			t.Errorf("%s: transfer %v != profile send+recv %v", pp.Name, r.Transfer, pp.SendTime+pp.RecvTime)
		}
	}
	if rep.Summary.ParallelEff <= 0 || rep.Summary.ParallelEff > 1 {
		t.Errorf("LU parallel eff out of range: %+v", rep.Summary)
	}

	// The JSON encoding is the CI determinism currency: two analyses of
	// the same sink must serialise byte-identically.
	var j1, j2 bytes.Buffer
	if err := rep.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := AnalyzeSink(sink, Options{Makespan: res.SimulatedTime}).WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("repeated analysis serialised differently")
	}
}

// TestRenderTables smoke-tests the human-readable output.
func TestRenderTables(t *testing.T) {
	s := replay.NewMetricsSink()
	s.Compute("p0", "h0", 1e6, 0, 5)
	s.Comm("p0", "p1", 4096, 5, 6)
	rep := AnalyzeSink(s, Options{Windows: 3})
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"summary:", "window", "phase", "rank", "p0", "p1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if got := rep.Summary.String(); !strings.Contains(got, "PE=") {
		t.Errorf("Efficiency.String: %q", got)
	}
}

// TestWindowPartitionExact checks that the last window closes exactly at
// the makespan, with no float gap losing the tail of the run.
func TestWindowPartitionExact(t *testing.T) {
	s := replay.NewMetricsSink()
	s.Compute("p0", "h0", 1, 0, 1.0/3.0)
	rep := AnalyzeSink(s, Options{Windows: 7, Makespan: 1.0 / 3.0})
	last := rep.Windows[len(rep.Windows)-1]
	if last.End != rep.Makespan {
		t.Fatalf("last window ends at %v, makespan %v", last.End, rep.Makespan)
	}
	var useful float64
	for _, w := range rep.Windows {
		useful += w.Eff.ParallelEff * (w.End - w.Start)
	}
	if !approx(useful, 1.0/3.0) {
		t.Fatalf("window-weighted useful %g, want 1/3", useful)
	}
}

// TestCheckWindows pins the accepted window range: 0 (the default) and
// 1..MaxWindows.
func TestCheckWindows(t *testing.T) {
	for n, ok := range map[int]bool{-1: false, 0: true, 1: true, MaxWindows: true, MaxWindows + 1: false} {
		if err := CheckWindows(n); (err == nil) != ok {
			t.Errorf("CheckWindows(%d) = %v, want ok=%t", n, err, ok)
		}
	}
}
