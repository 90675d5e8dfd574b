package experiments

import (
	"context"
	"fmt"

	"tireplay/internal/mpi"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/sweep"
	"tireplay/internal/trace"
)

// WhatIf is the capacity-planning campaign of Section 5 run at sweep scale:
// one LU instance is traced once (first class, first process count of the
// config), then the trace is replayed against every scenario of the grid —
// candidate CPU, interconnect and folding upgrades — concurrently on the
// sweep engine's worker pool. The returned result lists the predicted
// makespan of each scenario in deterministic grid order.
func WhatIf(ctx context.Context, cfg *Config, grid sweep.Grid, workers int) (*sweep.Result, error) {
	cfg.setDefaults()
	class := cfg.Classes[0]
	procs := cfg.Procs[0]
	prog, err := npb.LU(npb.LUConfig{Class: class, Procs: procs})
	if err != nil {
		return nil, err
	}
	perRank, err := mpi.RecordAll(procs, prog)
	if err != nil {
		return nil, fmt.Errorf("experiments: whatif acquisition: %w", err)
	}
	ts := sweep.TracesFromActions(perRank)
	res, err := sweep.Run(ctx, &sweep.Config{
		Platform: platform.BordereauWithCores(procs, 1),
		Grid:     grid,
		Traces:   ts,
		Model:    smpi.Default(),
		Workers:  workers,
	})
	if err != nil {
		return res, err
	}
	for i := range res.Scenarios {
		sc := &res.Scenarios[i]
		if sc.Err != "" {
			return res, fmt.Errorf("experiments: whatif scenario %d (%s): %s", sc.Index, sc.Name, sc.Err)
		}
		cfg.progressf("whatif %-32s: predicted %.4f s", sc.Name, sc.SimulatedTime)
	}
	return res, nil
}

// replayBordereau replays per-rank actions on a one-core-per-node bordereau
// platform — the shared replay step of the accuracy and invariance
// experiments. A zero rate keeps the calibrated default power; every call
// instantiates a fresh kernel, so concurrent experiment cells never share
// mutable state.
func replayBordereau(procs int, rate float64, perRank [][]trace.Action) (*replay.Result, error) {
	var (
		b   *platform.Build
		err error
	)
	if rate > 0 {
		b, err = platform.BuildBordereauCustom(procs, 1, rate)
	} else {
		b, err = platform.BuildBordereauWithCores(procs, 1)
	}
	if err != nil {
		return nil, err
	}
	d, err := platform.RoundRobin(b.HostNames, procs, 1)
	if err != nil {
		return nil, err
	}
	return replay.RunActions(b, d, replay.Config{Model: smpi.Default()}, perRank)
}
