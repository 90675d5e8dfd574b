// benchmark_suite traces and replays the four NPB skeletons — LU, MG, CG
// and EP — on the same modelled cluster, then prints the predicted times
// together with a per-application execution profile (the profile output
// sketched in Figure 4 of the paper). It illustrates how differently the
// kernels stress the platform: LU pipelines wavefronts, MG exchanges
// six-neighbour halos across a grid hierarchy, CG is latency-bound on
// dot-product reductions, EP barely communicates at all.
//
// Run with: go run ./examples/benchmark_suite
package main

import (
	"fmt"
	"log"
	"os"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
	"tireplay/internal/units"
)

const procs = 8

func main() {
	benchmarks := []struct {
		name string
		prog mpi.Program
	}{
		{"LU", mustLU()},
		{"MG", mustProg(npb.MG(npb.MGConfig{ClassName: "S", Procs: procs}))},
		{"CG", mustProg(npb.CG(npb.CGConfig{ClassName: "S", Procs: procs}))},
		{"EP", mustProg(npb.EP(npb.EPConfig{ClassName: "S", Procs: procs}))},
	}

	fmt.Printf("%-4s | %10s | %12s | %12s | %10s\n",
		"app", "actions", "comm bytes", "flops", "predicted")
	for _, bm := range benchmarks {
		// Generate the time-independent trace with the recorder engine.
		perRank, err := mpi.RecordAll(procs, bm.prog)
		if err != nil {
			log.Fatal(err)
		}
		var stats trace.Stats
		for _, acts := range perRank {
			for _, a := range acts {
				stats.Observe(a)
			}
		}

		// Replay it on the modelled cluster.
		b, err := platform.BuildBordereauWithCores(procs, 1)
		if err != nil {
			log.Fatal(err)
		}
		d, err := platform.RoundRobin(b.HostNames, procs, 1)
		if err != nil {
			log.Fatal(err)
		}
		prof := replay.NewProfile()
		res, err := replay.RunActions(b, d,
			replay.Config{Model: smpi.Default(), TimedTracer: prof}, perRank)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s | %10d | %12s | %12s | %10s\n",
			bm.name, stats.Actions,
			units.FormatBytes(stats.CommBytes), units.FormatFlops(stats.Flops),
			units.FormatSeconds(res.SimulatedTime))

		if bm.name == "LU" {
			fmt.Println("\nLU per-process profile (simulated):")
			for _, warn := range prof.Render(os.Stdout, res.SimulatedTime) {
				fmt.Println("warning:", warn)
			}
			fmt.Println()
		}
	}
}

func mustLU() mpi.Program {
	return mustProg(npb.LU(npb.LUConfig{Class: npb.ClassS, Procs: procs}))
}

func mustProg(p mpi.Program, err error) mpi.Program {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
