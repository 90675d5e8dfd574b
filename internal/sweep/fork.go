package sweep

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// This file plans and executes shared-prefix forking (see internal/replay's
// fork.go for the underlying machinery): scenarios that agree on the
// platform, the deployment and the fault stream — differing only in their
// collective algorithm or checkpoint policy — replay their common trace
// prefix once on a donor kernel, then each resumes from the donor's park
// times on a kernel of its own. Forking is an optimisation with a proof
// obligation: every forked member is byte-identical (timed traces) and
// bit-equal (makespans) to a from-scratch replay, and any member that cannot
// be proven equivalent silently falls back to one.

// groupKey identifies a fork group: the axes that shape the platform, the
// deployment folding and the fault stream. Scenarios sharing a key replay an
// identical action prefix up to their first collective-dependent action (or
// the whole trace, when only the analytic checkpoint policy differs).
type groupKey struct {
	lat, bw, pow float64
	fold, hosts  int
	topo, fault  string
}

func keyOf(sc *Scenario) groupKey {
	k := groupKey{lat: sc.LatencyScale, bw: sc.BandwidthScale, pow: sc.PowerScale,
		fold: sc.Fold, hosts: sc.Hosts, fault: sc.Fault.String()}
	if sc.Topo != nil {
		k.topo = sc.Topo.String()
	}
	return k
}

// forkGroup is one donor prefix shared by two or more member scenarios. The
// donor task fills pr/wall/err exactly once before any member task runs, so
// members read them without locks.
type forkGroup struct {
	members []int // scenario indices, ascending
	cuts    []int // per-rank shared-action counts

	pr   *replay.PrefixRun
	wall time.Duration // donor wall time, attributed to the first member
	err  error         // donor failure: members replay from scratch
}

// planForkGroups partitions the forkable scenarios into prefix-sharing
// groups. It returns the groups in deterministic (first-member) order and a
// per-scenario pointer to its group (nil: the scenario replays normally).
// The prefix plan is computed from the shared trace set at most twice — once
// per cut rule — whatever the grid size.
func planForkGroups(cfg *Config, scenarios []Scenario) ([]*forkGroup, []*forkGroup, error) {
	memberOf := make([]*forkGroup, len(scenarios))
	if !cfg.Fork || cfg.Traces == nil {
		// An all-synthetic sweep has no shared trace set to plan a prefix on.
		return nil, memberOf, nil
	}
	n := cfg.Traces.Ranks()
	var order []groupKey
	byKey := make(map[groupKey][]int)
	for si := range scenarios {
		sc := &scenarios[si]
		if rcfg := replayConfig(cfg, nil, *sc); !rcfg.Forkable() {
			continue // a custom registry, or fail-stops without a checkpoint protocol
		}
		if sc.World > 0 {
			// Synthetic cells regenerate their own streams at their own
			// world size; the prefix plan is computed from the recorded
			// trace set, so they never join a group.
			continue
		}
		k := keyOf(sc)
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], si)
	}

	visit := func(r int, yield func(trace.Action) bool) error {
		return cfg.Traces.visit(r, yield)
	}
	// The plan depends only on the traces and the cut rule, never on the
	// group key: cache one plan per rule. A nil entry after planning means
	// the prefix is not safely parkable and those groups replay normally.
	var plans [2]*replay.PrefixPlan
	var planned [2]bool
	getPlan := func(collCut bool) (*replay.PrefixPlan, error) {
		idx := 0
		if collCut {
			idx = 1
		}
		if !planned[idx] {
			planned[idx] = true
			plan, ok, err := replay.PlanPrefix(n, collCut, visit)
			if err != nil {
				return nil, err
			}
			if ok {
				plans[idx] = plan
			}
		}
		return plans[idx], nil
	}

	var groups []*forkGroup
	for _, k := range order {
		members := byKey[k]
		if len(members) < 2 {
			continue // nothing to share
		}
		// Members differing in their collective algorithm cut at the first
		// collective-dependent action; members differing only in their
		// analytic checkpoint policy share the whole trace.
		collCut := false
		for _, si := range members[1:] {
			if scenarios[si].Coll != scenarios[members[0]].Coll {
				collCut = true
				break
			}
		}
		plan, err := getPlan(collCut)
		if err != nil {
			return nil, nil, err
		}
		if plan == nil || plan.Actions == 0 {
			continue
		}
		g := &forkGroup{members: members, cuts: plan.Cuts}
		groups = append(groups, g)
		for _, si := range members {
			memberOf[si] = g
		}
	}
	return groups, memberOf, nil
}

// scenarioBuild instantiates the scenario's scaled platform — the common
// first step of every replay variant (from-scratch, donor, forked member).
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

// runDonor replays the group's shared prefix once. sc is the group's first
// member: every field the donor reads (scales, topology, fold, fault stream,
// and — on a full-trace cut — the collective algorithm) is group-common by
// construction of the key. Its checkpoint policy is carried only to satisfy
// the forkability contract; the prefix applies no waste algebra.
func (g *forkGroup) runDonor(ctx context.Context, cfg *Config, model *smpi.Model, sc Scenario, depl *platform.Deployment) {
	defer func() {
		if r := recover(); r != nil {
			g.err = fmt.Errorf("sweep: fork donor (%s) panicked: %v", sc.Name(), r)
		}
	}()
	if err := ctx.Err(); err != nil {
		g.err = err
		return
	}
	b, err := scenarioBuild(cfg, sc)
	if err != nil {
		g.err = err
		return
	}
	sources, err := scenarioSources(cfg, &sc, len(depl.Processes))
	if err != nil {
		g.err = err
		return
	}
	start := time.Now()
	g.pr, g.err = replay.RunPrefix(b, depl, replayConfig(cfg, model, sc), sources, replay.PrefixOptions{
		Cuts:        g.cuts,
		RecordTrace: cfg.Timed || cfg.Profile || cfg.Metrics,
	})
	g.wall = time.Since(start)
}

// runMember replays one member scenario from the shared prefix on a freshly
// built kernel, falling back to a from-scratch replay when the donor failed
// or the forked run could not be proven equivalent (replay.ErrForkUnsafe).
func runMember(cfg *Config, model *smpi.Model, sc Scenario, depl *platform.Deployment, g *forkGroup) outcome {
	if g.err != nil || g.pr == nil {
		return runTask(cfg, model, sc, depl)
	}
	b, err := scenarioBuild(cfg, sc)
	if err != nil {
		return outcome{err: err}
	}
	sources, err := scenarioSources(cfg, &sc, len(depl.Processes))
	if err != nil {
		return outcome{err: err}
	}

	var out outcome
	tr := newTaskTracers(cfg, &out, depl.Processes)
	out.res, out.err = g.pr.RunForked(b, tr.config(cfg, model, sc), sources)
	if out.err != nil && errors.Is(out.err, replay.ErrForkUnsafe) {
		return runTask(cfg, model, sc, depl)
	}
	tr.finish(&out)
	if out.err == nil {
		out.forked = true
		out.prefix = g.pr.Actions
	}
	return out
}
