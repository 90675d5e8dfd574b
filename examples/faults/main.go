// faults is the walkthrough of the resilience axis: it acquires one LU
// trace, measures its fault-free makespan, then sweeps a checkpoint
// interval x failure-seed grid against an exponential fail-stop process
// (mtbf) under the checkpoint/restart waste model — and checks that the
// interval the table favours brackets Daly's analytic optimum
// sqrt(2*cost*mtbf), which replay.DalyInterval computes in closed form.
//
// Run with: go run ./examples/faults
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"tireplay/internal/convert"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
	"tireplay/internal/units"
)

const procs = 8

func main() {
	// 1. Acquire one time-independent trace and split it into the
	// per-process files of Section 5 (SG_process<r>.trace).
	dir, err := os.MkdirTemp("", "tifaults-example-")
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
	traces, err := sweep.LoadDir(dir, procs)
	if err != nil {
		log.Fatal(err)
	}
	defer traces.Close()

	// 2. Fault-free reference: an empty grid is the single base scenario.
	base := &sweep.Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Traces:   traces,
	}
	ref, err := sweep.Run(context.Background(), base)
	if err != nil {
		log.Fatal(err)
	}
	M := ref.Scenarios[0].SimulatedTime
	fmt.Printf("fault-free makespan: %s\n", units.FormatSeconds(M))

	// 3. Size the failure process from the makespan: an MTBF of M/25
	// strikes the run ~25 times, enough for the waste curve's convexity
	// to dominate the luck of any single failure stream. The checkpoint
	// cost is 1/200 of the MTBF; Daly's optimum then sits at exactly
	// 10% of the MTBF — well inside the swept interval range.
	mtbf := M / 25
	cost := mtbf / 200
	daly := replay.DalyInterval(cost, mtbf)
	fmt.Printf("mtbf %s, checkpoint cost %s -> Daly interval %s\n\n",
		units.FormatSeconds(mtbf), units.FormatSeconds(cost),
		units.FormatSeconds(daly))

	// 4. The grid: checkpoint intervals bracketing the optimum, crossed
	// with three independent failure streams (same MTBF, different
	// seeds) to average the Poisson noise out.
	factors := []float64{0.25, 0.5, 1, 2, 4}
	var ckpts []*replay.Ckpt
	for _, f := range factors {
		ckpts = append(ckpts, &replay.Ckpt{Interval: f * daly, Cost: cost})
	}
	seeds := []uint64{1, 2, 3}
	var faults []*platform.FaultSpec
	for _, s := range seeds {
		fs, err := platform.ParseFaultSpec(fmt.Sprintf("mtbf:%g,seed:%d", mtbf, s))
		if err != nil {
			log.Fatal(err)
		}
		faults = append(faults, fs)
	}
	cfg := &sweep.Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid:     sweep.Grid{Faults: faults, Ckpt: ckpts},
		Traces:   traces,
	}
	res, err := sweep.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	res.RenderTable(os.Stdout)

	// 5. Average the effective makespan per interval across the seeds;
	// the minimum should land on (or next to) the Daly interval.
	type row struct{ interval, effective float64 }
	avg := make([]row, len(factors))
	for i := range res.Scenarios {
		sc := &res.Scenarios[i]
		if sc.Err != "" {
			log.Fatalf("scenario %s failed: %s", sc.Name, sc.Err)
		}
		for j, ck := range ckpts {
			if sc.Ckpt == ck {
				avg[j].interval = ck.Interval
				avg[j].effective += sc.Resilience.Effective / float64(len(seeds))
			}
		}
	}
	fmt.Printf("\n%14s | %14s | %s\n", "interval", "avg effective", "vs Daly")
	best := 0
	for j, r := range avg {
		if r.effective < avg[best].effective {
			best = j
		}
	}
	for j, r := range avg {
		mark := ""
		if j == best {
			mark = "  <- minimum"
		}
		fmt.Printf("%14s | %14s | %5.2fx%s\n",
			units.FormatSeconds(r.interval), units.FormatSeconds(r.effective),
			r.interval/daly, mark)
	}
	if ratio := avg[best].interval / daly; math.Abs(math.Log2(ratio)) > 1.01 {
		log.Fatalf("empirical optimum %s is more than one grid step from Daly's %s",
			units.FormatSeconds(avg[best].interval), units.FormatSeconds(daly))
	}
	fmt.Printf("\nthe empirical optimum brackets Daly's sqrt(2*cost*mtbf) = %s\n",
		units.FormatSeconds(daly))
}
