// Package tireplay_bench holds the benchmark harness regenerating the
// paper's tables and figures (one benchmark per table/figure, per
// DESIGN.md) plus the ablation benchmarks for the design choices the
// framework makes. Benchmarks run the quick scale by default; the
// cmd/experiments tool runs the paper scale.
//
// # Simulation fast-path benchmarks
//
// The kernel- and codec-level benchmarks live next to the code they
// measure: BenchmarkMaxMinSolve and BenchmarkKernelReshare in
// internal/simx, BenchmarkScanBytes and BenchmarkParseLine in
// internal/trace. Reference numbers on the CI-class machine (Intel Xeon
// @2.70GHz, go1.24) before and after the fast-path kernel rework (partial
// max-min resharing, intrusive flow/compute sets, pooled activities and
// events, byte-level trace scanning); medians of interleaved
// same-conditions runs of the identical benchmark bodies:
//
//	benchmark                     before              after            speedup
//	MaxMinSolve/flows-8         1115 ns/op  0 allocs   311 ns/op  0 allocs  3.6x
//	MaxMinSolve/flows-64       20357 ns/op  3 allocs  4982 ns/op  0 allocs  4.1x
//	MaxMinSolve/flows-512      78214 ns/op  3 allocs 14364 ns/op  0 allocs  5.3x
//	KernelReshare/hosts-8       2.15 ms/op  7458 all  0.92 ms/op  1877 all  2.4x
//	KernelReshare/hosts-32     19.50 ms/op 57756 all  8.95 ms/op  7326 all  2.2x
//	ScanBytes (50k actions)    12.85 ms/op  2/line    5.57 ms/op  0/line   2.3x
//	                           87.2 MB/s             201.2 MB/s
//
// The replay-level effect shows up in BenchmarkFigure9ReplayTime below
// (actions/s) without any change to the SimulatedTime metrics the paper's
// figures report.
//
// The zero-allocation steady-state PR (lazy rate-epoch rescheduling,
// interned mailbox IDs, pooled Comm handles, mmap'd binary traces) extends
// the table: KernelReshare dropped a further 1.3x in time and 3.5x in
// allocations, and the new BenchmarkReplaySteadyState (internal/replay)
// pins the post/match/complete cycle at 0 allocs/op — enforced by the CI
// bench job via cmd/benchdiff against BENCH_baseline.json; the measured
// before/after table lives in ROADMAP.md.
package tireplay_bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"tireplay/internal/acquisition"
	"tireplay/internal/convert"
	"tireplay/internal/experiments"
	"tireplay/internal/gather"
	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/tau"
	"tireplay/internal/trace"
)

// benchClass and benchProcs size the benchmark instances.
var (
	benchClass = npb.ClassW
	benchProcs = 8
)

// luProgram builds the benchmark's LU skeleton.
func luProgram(b *testing.B, class npb.Class, procs int) mpi.Program {
	b.Helper()
	prog, err := npb.LU(npb.LUConfig{Class: class, Procs: procs})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// recordedTrace generates the per-rank TI trace of an instance.
func recordedTrace(b *testing.B, class npb.Class, procs int) [][]trace.Action {
	b.Helper()
	perRank, err := mpi.RecordAll(procs, luProgram(b, class, procs))
	if err != nil {
		b.Fatal(err)
	}
	return perRank
}

// replayTarget builds the regular-mode replay platform.
func replayTarget(b *testing.B, procs int) (*platform.Build, *platform.Deployment) {
	b.Helper()
	bd, err := platform.BuildBordereauWithCores(procs, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := platform.RoundRobin(bd.HostNames, procs, 1)
	if err != nil {
		b.Fatal(err)
	}
	return bd, d
}

// BenchmarkFigure7Acquisition regenerates one Figure 7 bar: a complete
// Regular-mode acquisition (instrumented simulated execution, real
// extraction, modelled gathering).
func BenchmarkFigure7Acquisition(b *testing.B) {
	prog := luProgram(b, benchClass, benchProcs)
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-fig7-")
		if err != nil {
			b.Fatal(err)
		}
		camp := &acquisition.Campaign{
			Procs: benchProcs, Program: prog, OverheadPerEvent: 1.5e-6,
		}
		rep, err := camp.Run(dir, acquisition.Regular(), false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.TotalAcquisitionTime(), "sim-acq-s")
		}
		os.RemoveAll(dir)
	}
}

// BenchmarkTable2Modes regenerates Table 2 cells: the instrumented
// execution time under each acquisition mode.
func BenchmarkTable2Modes(b *testing.B) {
	prog := luProgram(b, benchClass, benchProcs)
	for _, m := range []acquisition.Mode{
		acquisition.Regular(),
		acquisition.Folding(4),
		acquisition.Scattering(2),
		acquisition.ScatterFold(2, 4),
	} {
		b.Run(m.Name(), func(b *testing.B) {
			camp := &acquisition.Campaign{
				Procs: benchProcs, Program: prog, OverheadPerEvent: 1.5e-6,
			}
			for i := 0; i < b.N; i++ {
				secs, err := camp.InstrumentedTime(m)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(secs, "sim-exec-s")
				}
			}
		})
	}
}

// BenchmarkTable3TraceSizes regenerates a Table 3 row: writing the TAU and
// time-independent encodings of one instance and comparing sizes.
func BenchmarkTable3TraceSizes(b *testing.B) {
	prog := luProgram(b, benchClass, benchProcs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-t3-")
		if err != nil {
			b.Fatal(err)
		}
		_, files, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: benchProcs}, 0, prog)
		if err != nil {
			b.Fatal(err)
		}
		perRank, err := convert.ExtractDir(dir, benchProcs)
		if err != nil {
			b.Fatal(err)
		}
		var ti bytes.Buffer
		if err := trace.WriteAll(&ti, convert.Flatten(perRank)); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ti.Len())/(1<<20), "ti-MiB")
			b.ReportMetric(float64(files.TraceBytes)/float64(ti.Len()), "tau/ti")
		}
		os.RemoveAll(dir)
	}
}

// BenchmarkFigure8Replay regenerates one Figure 8 point: replaying a trace
// on the calibrated platform.
func BenchmarkFigure8Replay(b *testing.B) {
	perRank := recordedTrace(b, benchClass, benchProcs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, d := replayTarget(b, benchProcs)
		res, err := replay.RunActions(bd, d, replay.Config{Model: smpi.Default()}, perRank)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.SimulatedTime, "sim-s")
		}
	}
}

// BenchmarkFigure9ReplayTime regenerates Figure 9: the wall-clock time
// needed to replay traces of growing process counts.
func BenchmarkFigure9ReplayTime(b *testing.B) {
	for _, procs := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			perRank := recordedTrace(b, benchClass, procs)
			var actions int64
			for _, acts := range perRank {
				actions += int64(len(acts))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bd, d := replayTarget(b, procs)
				res, err := replay.RunActions(bd, d, replay.Config{}, perRank)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Actions), "actions")
				}
			}
			b.ReportMetric(float64(actions)/b.Elapsed().Seconds()/float64(b.N), "actions/s")
		})
	}
}

// BenchmarkLargeTraceGeneration regenerates the Section 6.5 measurement
// machinery: streaming the exact trace of one class D / 1024 rank.
func BenchmarkLargeTraceGeneration(b *testing.B) {
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassD, Procs: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		err := mpi.RecordStream(512, 1024, prog, func(a trace.Action) error {
			count++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(count), "actions")
		}
	}
}

// BenchmarkInvarianceExtraction regenerates the Section 6.2 check: one
// folded acquisition plus extraction, whose trace must match Regular mode.
func BenchmarkInvarianceExtraction(b *testing.B) {
	prog := luProgram(b, npb.ClassS, benchProcs)
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-inv-")
		if err != nil {
			b.Fatal(err)
		}
		camp := &acquisition.Campaign{Procs: benchProcs, Program: prog}
		if _, err := camp.Run(dir, acquisition.Folding(4), true); err != nil {
			b.Fatal(err)
		}
		if _, err := convert.ExtractDir(dir, benchProcs); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationNetworkModel compares the piece-wise linear MPI model
// against a plain affine network model on the same replay.
func BenchmarkAblationNetworkModel(b *testing.B) {
	perRank := recordedTrace(b, benchClass, benchProcs)
	for _, tc := range []struct {
		name  string
		model *smpi.Model
	}{
		{"piecewise", smpi.Default()},
		{"affine", smpi.Identity()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, d := replayTarget(b, benchProcs)
				res, err := replay.RunActions(bd, d, replay.Config{Model: tc.model}, perRank)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.SimulatedTime, "sim-s")
				}
			}
		})
	}
}

// BenchmarkAblationCollectives compares point-to-point decomposition of
// collectives (the paper's choice) against a monolithic analytic model.
func BenchmarkAblationCollectives(b *testing.B) {
	perRank := recordedTrace(b, benchClass, benchProcs)
	monolithic := replay.Default()
	monolithic.Register("allReduce", func(p *replay.Proc, a trace.Action) error {
		// Analytic model: log2(n) latency steps plus the reduction work.
		p.Sim.Sleep(3 * 16.67e-6 * 3) // ~log2(8) steps
		if a.Volume2 > 0 {
			p.Sim.Execute(a.Volume2)
		}
		return nil
	})
	for _, tc := range []struct {
		name string
		reg  *replay.Registry
	}{
		{"point-to-point", replay.Default()},
		{"monolithic", monolithic},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, d := replayTarget(b, benchProcs)
				res, err := replay.RunActions(bd, d, replay.Config{Registry: tc.reg}, perRank)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.SimulatedTime, "sim-s")
				}
			}
		})
	}
}

// BenchmarkAblationCodec compares the textual format, the binary codec of
// the paper's future work, and the gzip container.
func BenchmarkAblationCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	actions := make([]trace.Action, 100_000)
	for i := range actions {
		switch rng.Intn(3) {
		case 0:
			actions[i] = trace.Action{Proc: rng.Intn(64), Type: trace.Compute, Peer: -1, Volume: float64(rng.Intn(1e6))}
		case 1:
			actions[i] = trace.Action{Proc: rng.Intn(64), Type: trace.Send, Peer: rng.Intn(64), Volume: float64(rng.Intn(1e6))}
		default:
			actions[i] = trace.Action{Proc: rng.Intn(64), Type: trace.Recv, Peer: rng.Intn(64)}
		}
	}
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := trace.WriteAll(&buf, actions); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(buf.Len())/float64(len(actions)), "B/action")
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := trace.EncodeBinary(&buf, actions); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(buf.Len())/float64(len(actions)), "B/action")
			}
		}
	})
}

// BenchmarkAblationGatherArity evaluates the K-nomial gathering tree for
// several arities, the tunable the paper's gathering script exposes.
func BenchmarkAblationGatherArity(b *testing.B) {
	sizes := make([]float64, 1024)
	for i := range sizes {
		sizes[i] = 30e6
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cost, err := gather.Cost(sizes, k, platform.GigaEthernetBw, 3*platform.ClusterLatency)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(cost, "sim-s")
				}
			}
		})
	}
}

// BenchmarkAblationCalibration compares single-average flop-rate
// calibration (the paper's procedure) against per-phase awareness, the
// improvement hinted at in Section 6.4.
func BenchmarkAblationCalibration(b *testing.B) {
	cfg := experiments.Quick()
	cfg.Classes = []npb.Class{npb.ClassS}
	cfg.Procs = []int{benchProcs}
	cfg.CalibrationRuns = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.Suite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Fig8) > 0 {
			b.ReportMetric(res.Fig8[0].ErrorPct(), "err-%")
		}
	}
}
