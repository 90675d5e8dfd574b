// topozoo is the walkthrough of the topology zoo (cmd/tisweep's -topo axis
// in library form): it acquires one NPB LU trace and replays it unchanged
// across three generated interconnects — a 4-ary fat-tree, a 4x4 torus and
// a 2-group dragonfly — at two interconnect latencies, printing the
// makespan-vs-topology table. The trace is acquired once; only the network
// model under it changes, the paper's what-if promise applied to topology
// procurement.
//
// Run with: go run ./examples/topozoo
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tireplay/internal/npb"
	"tireplay/internal/sweep"
)

const procs = 8

func main() {
	// 1. Acquire one time-independent LU trace.
	perRank, err := npb.RecordAll("lu", npb.ClassA.Name, procs)
	if err != nil {
		log.Fatal(err)
	}
	traces := sweep.TracesFromActions(perRank)

	// 2. The topology axis: every scenario builds its interconnect from a
	// generator (zones + computed routes, no per-pair tables), so even
	// thousand-host fabrics cost O(hosts) to stand up. The 8 ranks deploy
	// onto the first 8 hosts of each topology.
	topos, err := sweep.ParseTopoList("fat-tree:4,torus:4x4,dragonfly:2x4x2")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Cross it with an interconnect-latency what-if: at 20x latency the
	// hop-count differences between the fabrics dominate LU's small
	// boundary exchanges.
	cfg := &sweep.Config{
		Grid: sweep.Grid{
			LatencyScale: []float64{1, 20},
			Topo:         topos,
		},
		Traces: traces,
	}
	res, err := sweep.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	res.RenderTable(os.Stdout)

	fmt.Println()
	seen := make(map[string]bool)
	for i := range res.Scenarios {
		s := &res.Scenarios[i]
		if s.Err != "" {
			log.Fatalf("scenario %s: %s", s.Name, s.Err)
		}
		if seen[s.Topo.String()] {
			continue
		}
		seen[s.Topo.String()] = true
		fmt.Printf("%-22s %3d hosts, rank0->rank%d route: %2d links\n",
			s.Topo.String(), s.Topo.HostCount(), procs-1, s.Topo.Hops(0, procs-1))
	}
}
