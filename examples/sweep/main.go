// sweep is the walkthrough of the parallel what-if engine (cmd/tisweep's
// library form): it acquires one LU trace, writes it out as per-rank trace
// files the way the acquisition pipeline would, loads them back as a shared
// TraceSet, and explores a 12-scenario grid of platform hypotheses on a
// worker pool — measuring the wall-clock gain over a serial sweep and
// verifying the results are identical.
//
// Run with: go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"tireplay/internal/convert"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
)

const procs = 8

func main() {
	// 1. Acquire one time-independent trace and split it into the
	// per-process files of Section 5 (SG_process<r>.trace).
	dir, err := os.MkdirTemp("", "tisweep-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	perRank, err := npb.RecordAll("lu", npb.ClassA.Name, procs)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := trace.WriteSplit(dir, procs, convert.Flatten(perRank)); err != nil {
		log.Fatal(err)
	}

	// 2. Load the files once; scenarios share the parsed trace read-only.
	traces, err := sweep.LoadDir(dir, procs)
	if err != nil {
		log.Fatal(err)
	}
	defer traces.Close()

	// 3. A 12-scenario hypothesis grid: interconnect latency halved or
	// doubled, bandwidth 1x/10x, CPUs 1x/1.5x/2x.
	cfg := &sweep.Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid: sweep.Grid{
			LatencyScale:   []float64{0.5, 2},
			BandwidthScale: []float64{1, 10},
			PowerScale:     []float64{1, 1.5, 2},
		},
		Traces: traces,
	}

	// 4. Serial reference, then the parallel pool.
	cfg.Workers = 1
	t0 := time.Now()
	serial, err := sweep.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	serialWall := time.Since(t0)

	cfg.Workers = runtime.GOMAXPROCS(0)
	t0 = time.Now()
	parallel, err := sweep.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	parallelWall := time.Since(t0)

	for i := range serial.Scenarios {
		if serial.Scenarios[i].SimulatedTime != parallel.Scenarios[i].SimulatedTime {
			log.Fatalf("scenario %d differs between worker counts", i)
		}
	}

	parallel.RenderTable(os.Stdout)
	fmt.Printf("\n%d scenarios: serial %v, %d workers %v (%.2fx) — identical predictions\n",
		len(parallel.Scenarios), serialWall.Round(time.Millisecond),
		parallel.Workers, parallelWall.Round(time.Millisecond),
		float64(serialWall)/float64(parallelWall))
}
