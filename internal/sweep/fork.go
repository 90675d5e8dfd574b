package sweep

import (
	"tireplay/internal/platform"
	"tireplay/internal/replay"
)

// This file groups the cells that replay the same simulation. A checkpoint
// protocol applies analytically to the fault-free makespan (replay.Ckpt),
// so cells identical in every field but their protocol run the very same
// kernel simulation: the group's first cell replays, and every other cell
// applies its own protocol to that run's fault-free makespan and reuses the
// run's timed trace and event sink. Each derived row is bit-equal to the
// row its own replay would produce, because it calls the same analytic step
// on the same three inputs.

// shareGroups partitions the scenarios into groups sharing one replay, in
// order of their first cell, each listing its scenario indices in ascending
// order. Without cfg.Fork every cell is its own group, and so is every cell
// under the abort policy (fail-stops without a protocol): its faults play
// out inside the kernel.
func shareGroups(cfg *Config, scenarios []Scenario) [][]int {
	groups := make([][]int, 0, len(scenarios))
	byKey := make(map[Scenario]int)
	for si, sc := range scenarios {
		if !cfg.Fork || (sc.Ckpt == nil && sc.Fault.FailStops()) {
			groups = append(groups, []int{si})
			continue
		}
		// Cells built from one axis entry share its Topo and Fault pointers,
		// so the key compares them by identity.
		sc.Index, sc.Ckpt = 0, nil
		if gi, ok := byKey[sc]; ok {
			groups[gi] = append(groups[gi], si)
			continue
		}
		byKey[sc] = len(groups)
		groups = append(groups, []int{si})
	}
	return groups
}

// sharedWith derives the outcome of sc, a later cell of the group whose
// first cell replayed into o without error. The timed trace and the sink
// are only read from here on; a streamed trace is copied into sc's own
// destination, which the caller settles.
func (o *outcome) sharedWith(cfg *Config, sc Scenario) outcome {
	faultFree := o.res.SimulatedTime
	if o.res.Resilience != nil {
		faultFree = o.res.Resilience.FaultFree
	}
	res := &replay.Result{SimulatedTime: faultFree, Actions: o.res.Actions}
	if sc.Ckpt != nil {
		ra, err := sc.Ckpt.Apply(faultFree, sc.Fault)
		if err != nil {
			return outcome{err: err}
		}
		res.SimulatedTime, res.Resilience = ra.Effective, ra
	}
	out := outcome{res: res, timed: o.timed, sink: o.sink, forked: true}
	if o.stream != nil {
		out.stream, out.err = o.stream.copyTo(cfg, &sc)
	}
	return out
}

// scenarioBuild instantiates the scenario's scaled platform.
func scenarioBuild(cfg *Config, sc Scenario) (*platform.Build, error) {
	scale := platform.Scale{
		Latency:   sc.LatencyScale,
		Bandwidth: sc.BandwidthScale,
		Power:     sc.PowerScale,
	}
	if sc.Topo != nil {
		// A generated topology replaces the base platform; the what-if
		// factors multiply the generator's base quantities.
		return sc.Topo.Scaled(scale).Build()
	}
	scaled, err := cfg.Platform.Scaled(scale)
	if err != nil {
		return nil, err
	}
	return platform.Instantiate(scaled)
}
