package sweep

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"tireplay/internal/metrics"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/synth"
)

// Config parameterises a sweep.
type Config struct {
	// Platform is the base platform description scenarios without a
	// topology derive from (required unless every grid cell sets a Topo).
	// It is only read; each scenario instantiates its own kernel from its
	// own scaled copy.
	Platform *platform.Platform
	// Grid spans the scenario space.
	Grid Grid
	// Traces is the shared trace set. It is only read. Grid.CheckInputs
	// decides when it is required: for recorded cells, i.e. a grid with no
	// World axis or a 0 entry on it. It may be nil otherwise.
	Traces *TraceSet
	// Synth is the fitted statistical model (see internal/synth) that
	// synthetic cells — grid cells with a positive World — regenerate
	// their rank streams from, on the fly, without trace files. By
	// Grid.CheckInputs it is required exactly when Grid.World has a
	// positive entry.
	Synth *synth.Model
	// SynthSpec templates the synthetic generation: its scaling law, seed,
	// jitter and explicit grid apply to every synthetic cell, while its
	// World field is overridden by each cell's world value.
	SynthSpec synth.Spec
	// Model is the MPI communication model; nil means smpi.Default().
	Model *smpi.Model
	// Registry binds action keywords to handlers for every scenario replay;
	// nil means replay.Default(). It is shared read-only between workers.
	Registry *replay.Registry
	// Workers bounds the pool replaying scenarios concurrently; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Timed collects each scenario's timed trace (the secondary output of
	// Figure 4) into its result. Traces are byte-identical whatever the
	// worker count.
	Timed bool
	// Profile collects a per-process profile for each scenario.
	Profile bool
	// Metrics computes each scenario's time-resolved POP metrics report
	// (load balance, communication efficiency, serialization/transfer
	// split; see internal/metrics) from a columnar event sink attached to
	// the replay. The report is a pure function of the scenario, so it is
	// byte-identical whatever the worker count.
	Metrics bool
	// MetricsWindows is the number of fixed time windows for Metrics;
	// <= 0 means the metrics package default (10).
	MetricsWindows int
	// Fork shares one replay between scenarios that differ only in their
	// checkpoint protocol (see fork.go): the first replays, the others apply
	// their own protocol to its fault-free makespan and reuse its timed
	// trace and sink. Scenarios under the abort policy always replay alone.
	// Rows are identical either way.
	Fork bool
	// OnResult, when non-nil, receives each scenario's result as it
	// completes, from whichever worker finished it last; it must be safe
	// for concurrent use. Results in the final Result stay in scenario
	// order regardless.
	OnResult func(*ScenarioResult)
}

// ScenarioResult is the outcome of one scenario.
type ScenarioResult struct {
	Scenario
	// Name is the scenario's compact label.
	Name string `json:"name"`
	// SimulatedTime is the predicted makespan on the scenario platform.
	SimulatedTime float64 `json:"simulated_time"`
	// Actions is the number of trace actions replayed.
	Actions int64 `json:"actions"`
	// Wall is the host CPU time the scenario's kernel consumed. A shared
	// replay is charged to the row that ran it; rows derived from it report
	// 0, so the sum over scenarios is the replay time actually spent.
	Wall time.Duration `json:"wall_ns"`
	// Components is 1 for every completed scenario, including one that
	// reuses another's replay, and 0 on a failed or cancelled row.
	Components int `json:"components"`
	// TimedTrace is the scenario's timed trace when Config.Timed is set.
	TimedTrace []byte `json:"-"`
	// Profile holds the per-process profile rows when Config.Profile is
	// set, sorted by process name.
	Profile []*replay.ProcProfile `json:"profile,omitempty"`
	// Metrics is the scenario's time-resolved POP metrics report when
	// Config.Metrics is set.
	Metrics *metrics.Report `json:"metrics,omitempty"`
	// Resilience is the checkpoint/restart waste accounting of the
	// scenario; non-nil exactly when the scenario sets a Ckpt protocol.
	Resilience *replay.Resilience `json:"resilience,omitempty"`
	// Forked reports that the row reuses the replay of an earlier scenario
	// of its group instead of replaying (Config.Fork).
	Forked bool `json:"forked,omitempty"`
	// PrefixActions is the number of trace actions inherited from that
	// replay: all of Actions when Forked, zero otherwise.
	PrefixActions int64 `json:"prefix_actions,omitempty"`
	// Err reports a failed or cancelled scenario; the zero value means
	// success.
	Err string `json:"err,omitempty"`
}

// Result is the aggregated outcome of a sweep, scenarios in expansion order.
type Result struct {
	Workers   int              `json:"workers"`
	Wall      time.Duration    `json:"wall_ns"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// outcome is the raw outcome of one scenario's replay.
type outcome struct {
	res    *replay.Result
	timed  []byte
	sink   *replay.MetricsSink
	forked bool // reuses the replay of an earlier scenario of its group
	err    error
}

// taskTracers bundles a replay's tracer set: a timed-trace writer and one
// accounting sink, teed per Config. The sink records the event columns when
// Metrics is set and only the per-process totals when just Profile is; it
// pre-interns the deployment's process names so ranks that record no event
// still get a (fully idle) row in the analysis.
type taskTracers struct {
	tee replay.Tee
	buf bytes.Buffer
	tw  *replay.TimedTraceWriter
}

func newTaskTracers(cfg *Config, out *outcome, procs []platform.ProcessDef) *taskTracers {
	t := &taskTracers{}
	if cfg.Timed {
		t.tw = replay.NewTimedTraceWriter(&t.buf)
		t.tee = append(t.tee, t.tw)
	}
	switch {
	case cfg.Metrics:
		out.sink = replay.NewMetricsSink()
	case cfg.Profile:
		out.sink = replay.NewProfile()
	default:
		return t
	}
	for _, p := range procs {
		out.sink.RankID(p.Function)
	}
	t.tee = append(t.tee, out.sink)
	return t
}

// config returns the scenario's replay configuration with the task's
// tracers attached.
func (t *taskTracers) config(cfg *Config, model *smpi.Model, sc Scenario) replay.Config {
	rcfg := replay.Config{Model: model, Registry: cfg.Registry,
		Collectives: sc.Coll, Faults: sc.Fault, Ckpt: sc.Ckpt}
	if len(t.tee) > 0 {
		rcfg.TimedTracer = t.tee
	}
	return rcfg
}

// finish flushes the timed trace into the outcome; a write error that
// slipped by mid-replay (sticky in the writer) fails the scenario rather than
// passing off a truncated trace.
func (t *taskTracers) finish(out *outcome) {
	if t.tw == nil {
		return
	}
	if err := t.tw.Flush(); err != nil && out.err == nil {
		out.err = fmt.Errorf("sweep: timed trace: %w", err)
	}
	out.timed = t.buf.Bytes()
}

// Run executes the sweep on a pool created for this one call: it expands
// the grid, schedules every scenario on the worker pool and reports the
// results in scenario order. Cancelling the context stops scheduling new
// work; already-running scenarios finish (a kernel run is not
// interruptible), unstarted ones are reported with Err "sweep: canceled",
// and Run returns the partial result together with the context's error.
// Services that execute many sweeps should hold one Engine and call its Run
// instead, reusing the worker goroutines across requests.
func Run(ctx context.Context, cfg *Config) (*Result, error) {
	e := NewEngine(cfg.Workers)
	defer e.Close()
	return e.Run(ctx, cfg)
}

// Run executes one sweep on the engine's resident pool. The semantics are
// those of the package-level Run; concurrent calls share the pool's workers.
func (e *Engine) Run(ctx context.Context, cfg *Config) (*Result, error) {
	model := cfg.Model
	if model == nil {
		model = smpi.Default()
	}

	if err := cfg.Grid.CheckInputs(cfg.Traces != nil && cfg.Traces.Ranks() > 0, cfg.Synth != nil); err != nil {
		return nil, err
	}
	scenarios := cfg.Grid.Expand()
	// A non-empty topology axis gives every cell a generated platform.
	needBase := len(cfg.Grid.Topo) == 0
	// One generator per distinct synthetic world, shared read-only by every
	// scenario at that size (per-rank cursors are created per replay, so
	// workers never share mutable generation state).
	if cfg.Synth != nil {
		gens := make(map[int]*synth.Gen)
		for i := range scenarios {
			sc := &scenarios[i]
			if sc.World <= 0 {
				continue
			}
			g, ok := gens[sc.World]
			if !ok {
				spec := cfg.SynthSpec
				spec.World = sc.World
				var err error
				if g, err = synth.NewGen(cfg.Synth, spec); err != nil {
					return nil, fmt.Errorf("sweep: world %d: %w", sc.World, err)
				}
				gens[sc.World] = g
			}
			sc.synthGen = g
		}
	}

	var hosts []string
	var err error
	if needBase {
		if cfg.Platform == nil {
			return nil, fmt.Errorf("sweep: nil platform")
		}
		if hosts, err = cfg.Platform.Hosts(); err != nil {
			return nil, err
		}
		if len(hosts) == 0 {
			return nil, fmt.Errorf("sweep: platform declares no hosts")
		}
	}

	depls := make([]*platform.Deployment, len(scenarios))
	for si, sc := range scenarios {
		// Synthetic cells size their own world; recorded cells replay
		// every rank of the trace set.
		n := sc.World
		if n <= 0 {
			n = cfg.Traces.Ranks()
		}
		scHosts := hosts
		if sc.Topo != nil {
			scHosts = sc.Topo.HostNames()
		}
		if depls[si], err = scenarioDeployment(scHosts, sc, n); err != nil {
			return nil, fmt.Errorf("sweep: scenario %d (%s): %w", si, sc.Name(), err)
		}
	}

	// results[si] is written by exactly one worker, the one that ran the
	// scenario's group.
	results := make([]ScenarioResult, len(scenarios))
	for si := range results {
		results[si] = ScenarioResult{Scenario: scenarios[si], Name: scenarios[si].Name(),
			Err: "sweep: canceled"}
	}
	record := func(si int, out outcome) {
		results[si] = resultOf(cfg, scenarios[si], out)
		if cfg.OnResult != nil {
			cfg.OnResult(&results[si])
		}
	}
	// runGroup replays the group's first scenario and derives the others
	// from it (see fork.go). An error is never shared: after a failed first
	// replay, each other scenario replays alone. A cancelled context skips
	// the replays, leaving their rows canceled.
	runGroup := func(g []int) {
		if ctx.Err() != nil {
			return
		}
		first := safeRunTask(cfg, model, scenarios[g[0]], depls[g[0]])
		record(g[0], first)
		for _, si := range g[1:] {
			switch {
			case first.err == nil:
				record(si, first.sharedWith(scenarios[si], len(depls[si].Processes)))
			case ctx.Err() == nil:
				record(si, safeRunTask(cfg, model, scenarios[si], depls[si]))
			}
		}
	}

	start := time.Now()
	groups := shareGroups(cfg, scenarios)
	var wg sync.WaitGroup
	wg.Add(len(groups))
	for _, g := range groups {
		e.submit(func() {
			defer wg.Done()
			runGroup(g)
		})
	}
	wg.Wait()

	res := &Result{Workers: e.workers, Wall: time.Since(start), Scenarios: results}
	return res, ctx.Err()
}

// scenarioDeployment folds the n ranks onto the scenario's host subset.
func scenarioDeployment(hosts []string, sc Scenario, n int) (*platform.Deployment, error) {
	use := hosts
	if sc.Hosts > 0 && sc.Hosts < len(hosts) {
		use = hosts[:sc.Hosts]
	}
	fold := sc.Fold
	if fold < 1 {
		fold = 1
	}
	return platform.RoundRobin(use, n, fold)
}

// safeRunTask shields the worker pool from a crashing scenario: a panic
// anywhere in its replay — a custom handler bug, a pathological trace, a
// kernel invariant violation — becomes that scenario's error instead of
// taking down the whole sweep, so sibling scenarios complete and their
// results are still flushed.
func safeRunTask(cfg *Config, model *smpi.Model, sc Scenario, depl *platform.Deployment) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = outcome{err: fmt.Errorf("sweep: scenario %d (%s) panicked: %v",
				sc.Index, sc.Name(), r)}
		}
	}()
	return runTask(cfg, model, sc, depl)
}

// runTask replays one scenario from scratch on its own kernel. Every mutable
// structure — the scaled description, the instantiated kernel with its
// pools and interning tables, the sources, the tracers — is created here
// and owned by this task alone.
func runTask(cfg *Config, model *smpi.Model, sc Scenario, depl *platform.Deployment) outcome {
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
	out.res, out.err = replay.Run(b, depl, tr.config(cfg, model, sc), sources)
	tr.finish(&out)
	return out
}

// scenarioSources returns fresh action sources for the scenario's n ranks:
// cursors over the shared recorded trace set, or — for synthetic cells —
// streaming generator cursors that synthesise each rank's actions on the
// fly, so a 16k-rank world costs one small cursor per rank, not trace
// files.
func scenarioSources(cfg *Config, sc *Scenario, n int) ([]replay.Source, error) {
	sources := make([]replay.Source, n)
	for r := range sources {
		var err error
		if sc.synthGen != nil {
			sources[r], err = sc.synthGen.Rank(r)
		} else {
			sources[r], err = cfg.Traces.source(r)
		}
		if err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// resultOf turns a scenario's outcome into its row. It reads nothing but the
// outcome, so the row is the same whichever worker replayed the scenario.
func resultOf(cfg *Config, sc Scenario, out outcome) ScenarioResult {
	r := ScenarioResult{Scenario: sc, Name: sc.Name()}
	if out.err != nil {
		r.Err = out.err.Error()
		return r
	}
	r.SimulatedTime = out.res.SimulatedTime
	r.Actions = out.res.Actions
	r.Wall = out.res.WallTime
	r.Components = 1
	r.Resilience = out.res.Resilience
	if out.forked {
		r.Forked, r.PrefixActions = true, r.Actions
	}
	r.TimedTrace = out.timed
	if cfg.Profile {
		r.Profile = out.sink.Processes()
	}
	if cfg.Metrics {
		// Checkpointed scenarios report a waste-inflated makespan (Effective
		// time), so their analysis horizon derives from the events instead.
		opt := metrics.Options{Windows: cfg.MetricsWindows}
		if r.Resilience == nil {
			opt.Makespan = r.SimulatedTime
		}
		r.Metrics = metrics.AnalyzeSink(out.sink, opt)
	}
	return r
}
