// lu_whatif demonstrates the capacity-planning use case motivating the
// paper: a computing centre wants objective performance indicators for
// candidate cluster upgrades *before* buying hardware. One time-independent
// trace of the NPB LU benchmark is acquired once, then replayed against
// several "what if?" platform scenarios — faster CPUs, a faster
// interconnect, both — by only changing the input files of the replay tool
// (Section 5: "a wide range of what-if scenarios can be explored without
// any modification of the simulator").
//
// The scenarios run through the parallel sweep engine: the grid of CPU and
// interconnect upgrades is expanded into the cross product of its axes and
// every cell replays on its own simulation kernel across a worker pool,
// sharing the one parsed trace read-only.
//
// Run with: go run ./examples/lu_whatif
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/sweep"
)

const procs = 8

func main() {
	// Acquire the trace once. The recorder engine generates the exact
	// per-rank traces the full acquisition pipeline would produce (verified
	// by the test suite), which keeps this example fast.
	perRank, err := npb.RecordAll("lu", npb.ClassA.Name, procs)
	if err != nil {
		log.Fatal(err)
	}
	var total int
	for _, acts := range perRank {
		total += len(acts)
	}
	fmt.Printf("acquired one LU class A trace on %d processes: %d actions\n\n", procs, total)

	// The upgrade grid: {current, 2x CPUs} x {1G, 10G interconnect} x
	// {current, halved latency} — the four classic scenarios of the study
	// (current cluster, faster CPUs, 10G+low-latency fabric, both) are the
	// cells where bandwidth and latency upgrade together; the grid also
	// prices the in-between configurations for free. The first scenario is
	// the unmodified bordereau cluster, so the table's speedup column reads
	// relative to today's platform.
	res, err := sweep.Run(context.Background(), &sweep.Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid: sweep.Grid{
			LatencyScale:   []float64{1, 0.5},
			BandwidthScale: []float64{1, 10},
			PowerScale:     []float64{1, 2},
		},
		Traces: sweep.TracesFromActions(perRank),
	})
	if err != nil {
		log.Fatal(err)
	}
	res.RenderTable(os.Stdout)

	fmt.Println("\nSame trace, different platform descriptions: that is the whole point")
	fmt.Println("of decoupling acquisition from replay with time-independent traces.")
}
