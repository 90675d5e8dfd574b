package sweep

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
)

// BenchmarkSweepParallel is the CI scaling gate of the parallel sweep
// engine: each iteration replays the same 8-scenario what-if grid twice —
// once on a single worker, once on min(4, NumCPU) workers — over one shared
// LU trace, checks the scenario results agree exactly, and reports the
// wall-clock ratio as the "speedup" metric. cmd/benchdiff enforces a floor
// on that metric in CI (-floor 'BenchmarkSweepParallel:speedup=3' on the
// 4-core runner): per-scenario kernels are independent, so an 8-scenario
// sweep must scale near-linearly to 4 workers. ns/op covers both runs, so
// the usual regression threshold also guards the engine's serial overhead.
func BenchmarkSweepParallel(b *testing.B) {
	const procs = 8
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassA, Procs: procs})
	if err != nil {
		b.Fatal(err)
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		b.Fatal(err)
	}
	ts := TracesFromActions(perRank)
	base := platform.BordereauWithCores(procs, 1)
	grid := Grid{
		LatencyScale:   []float64{1, 2},
		BandwidthScale: []float64{0.5, 1},
		PowerScale:     []float64{1, 2},
	}
	workers := 4
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}
	run := func(w int) *Result {
		res, err := Run(context.Background(), &Config{
			Platform: base, Grid: grid, Traces: ts, Workers: w,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	b.ResetTimer()
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rs := run(1)
		t1 := time.Now()
		rp := run(workers)
		t2 := time.Now()
		serial += t1.Sub(t0)
		parallel += t2.Sub(t1)
		for j := range rs.Scenarios {
			if rs.Scenarios[j].SimulatedTime != rp.Scenarios[j].SimulatedTime {
				b.Fatalf("scenario %d: serial %g != parallel %g", j,
					rs.Scenarios[j].SimulatedTime, rp.Scenarios[j].SimulatedTime)
			}
		}
	}
	b.StopTimer()
	if parallel > 0 {
		b.ReportMetric(float64(serial)/float64(parallel), "speedup")
	}
	b.ReportMetric(float64(parallel.Nanoseconds())/float64(b.N), "parallel-ns/op")
}

// BenchmarkSweepSerialScenario pins the per-scenario cost of the engine
// itself (expansion, scaled instantiation, source creation) around one
// replay, so engine overhead regressions show up independently of pool
// scaling.
func BenchmarkSweepSerialScenario(b *testing.B) {
	const procs = 8
	prog, err := npb.LU(npb.LUConfig{Class: npb.ClassW, Procs: procs})
	if err != nil {
		b.Fatal(err)
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		b.Fatal(err)
	}
	ts := TracesFromActions(perRank)
	base := platform.BordereauWithCores(procs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), &Config{Platform: base, Traces: ts, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Scenarios[0].Err != "" {
			b.Fatal(res.Scenarios[0].Err)
		}
	}
}
