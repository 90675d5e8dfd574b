package sweep

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
)

// TestSweepMetricsDeterministicAcrossWorkers pins the metrics contract
// end to end: sweep rows carry a POP metrics report on every cell of a
// bw x coll grid, and the metrics-only JSON view is byte-identical between
// one worker and many — the property the CI determinism gate diffs.
func TestSweepMetricsDeterministicAcrossWorkers(t *testing.T) {
	const procs = 8
	ts := luTraces(t, npb.ClassS, procs)
	grid := Grid{
		BandwidthScale: []float64{0.1, 1},
		Coll:           []coll.Config{{}, coll.MustParseSpec("binomial")},
	}
	base := platform.BordereauWithCores(procs, 1)
	run := func(workers int) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base,
			Grid:     grid,
			Traces:   ts,
			Workers:  workers,
			Metrics:  true,
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
		if s.Metrics == nil || p.Metrics == nil {
			t.Fatalf("scenario %d (%s): missing metrics report", i, s.Name)
		}
		m := s.Metrics
		if len(m.Ranks) != procs {
			t.Fatalf("scenario %d: %d rank rows, want %d", i, len(m.Ranks), procs)
		}
		if m.Summary.ParallelEff <= 0 || m.Summary.ParallelEff > 1 {
			t.Fatalf("scenario %d: parallel eff %g out of range", i, m.Summary.ParallelEff)
		}
		if len(m.Windows) != 10 {
			t.Fatalf("scenario %d: %d windows, want the default 10", i, len(m.Windows))
		}
		if s.Metrics.Makespan != s.SimulatedTime {
			t.Fatalf("scenario %d: metrics makespan %g != simulated time %g",
				i, s.Metrics.Makespan, s.SimulatedTime)
		}
	}
	var j1, j2 bytes.Buffer
	if err := serial.WriteMetricsJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteMetricsJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("metrics JSON differs across worker counts")
	}
	// Starving bandwidth by 10x must show up as lost communication
	// efficiency, not just a longer makespan — the ranking the new
	// columns exist for.
	slow, fast := serial.Scenarios[0].Metrics.Summary, serial.Scenarios[2].Metrics.Summary
	if !(slow.CommEff < fast.CommEff) {
		t.Fatalf("bw=0.1 comm eff %g not below bw=1 %g", slow.CommEff, fast.CommEff)
	}
}

// TestRenderTableMetricsColumns checks the conditional table columns.
func TestRenderTableMetricsColumns(t *testing.T) {
	const procs = 4
	ts := luTraces(t, npb.ClassS, procs)
	res, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid:     Grid{},
		Traces:   ts,
		Metrics:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.RenderTable(&buf)
	out := buf.String()
	for _, col := range []string{"parEff", "ldBal", "commE", "serE", "trfE"} {
		if !strings.Contains(out, col) {
			t.Errorf("table lacks %q column:\n%s", col, out)
		}
	}
	// Without metrics the columns must not appear.
	res2, err := Run(context.Background(), &Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid:     Grid{},
		Traces:   ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	res2.RenderTable(&buf)
	if strings.Contains(buf.String(), "parEff") {
		t.Errorf("metrics columns leaked into a plain sweep:\n%s", buf.String())
	}
}
