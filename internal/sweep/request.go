package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tireplay/internal/metrics"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/synth"
)

// SynthSpec carries the fitted statistical model (tigen fit output) that
// synthetic worlds regenerate from, plus the generation knobs. The model
// travels inline so the response stays a pure function of the request body;
// its canonical re-encoding is content-hashed into the cache key, so two
// spellings of the same model share one cache entry.
type SynthSpec struct {
	// Model is the fitted model JSON exactly as tigen fit emits it.
	Model json.RawMessage `json:"model"`
	// Scale is the scaling law: "weak" (default), "strong", or explicit
	// exponents like "compute=-1:bytes=-0.5".
	Scale string `json:"scale,omitempty"`
	// Seed seeds the deterministic jitter stream.
	Seed uint64 `json:"seed,omitempty"`
	// Jitter perturbs compute volumes by a factor uniform in [1-j, 1+j),
	// deterministically per (seed, rank, op).
	Jitter float64 `json:"jitter,omitempty"`
}

// Request asks for a trace to be replayed over a scenario grid. tiserved
// decodes it from a POST /sweeps body and tisweep fills it from its flags;
// Plan turns it into a sweep for both. The response body is a deterministic
// function of the request's canonical form: execution-only knobs (fork)
// never appear in it, so repeated questions are served from cache
// byte-identically.
type Request struct {
	// Trace is the content digest of a stored trace set ("sha256:...").
	// Optional when every grid cell is synthetic (a world axis with no 0
	// entry): those sweeps replay worlds nobody recorded.
	Trace string `json:"trace,omitempty"`
	// Platform is a builtin base-platform spec ("bordereau:8" or
	// "bordereau:8x4"); empty means bordereau sized to the largest world
	// in the sweep (the trace's ranks when there is no world axis), at most
	// its 93 nodes: a larger world folds round-robin onto them. Rejected
	// when every grid cell sets a topology.
	Platform string   `json:"platform,omitempty"`
	Grid     GridSpec `json:"grid"`
	// Synth supplies the fitted model that positive grid.world entries
	// regenerate from; required exactly when the grid has one.
	Synth *SynthSpec `json:"synth,omitempty"`
	// NoMPIModel disables the piece-wise linear MPI model.
	NoMPIModel bool `json:"no_mpi_model,omitempty"`
	// Fork toggles replay sharing between cells that differ only in their
	// checkpoint protocol (default on; see Config.Fork). Sharing is
	// result-identical, so this knob does not shape the response and is
	// not part of the cache key.
	Fork *bool `json:"fork,omitempty"`
	// Timed includes each scenario's timed trace in the response
	// (base64); traces are byte-identical on every execution.
	Timed bool `json:"timed,omitempty"`
	// Profile includes per-process profiles in the response.
	Profile bool `json:"profile,omitempty"`
	// Metrics includes each scenario's time-resolved POP metrics report
	// in the response. The report is deterministic, so metrics responses
	// cache and coalesce like any other.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsWindows sets the number of fixed time windows for Metrics
	// (0: default 10; at most metrics.MaxWindows); a positive count turns
	// Metrics on. Part of the canonical cache key.
	MetricsWindows int `json:"metrics_windows,omitempty"`
}

// Plan is a checked request: the sweep it asks for, less what the front
// end supplies (the trace set, the worker count), with the base platform
// still a builtin spec so that a front end can key on it before building
// it.
type Plan struct {
	// Config is the requested sweep; its Platform and Traces are unset.
	Config
	// Base is the builtin base platform, nil when every grid cell sets a
	// topology.
	Base *platform.BuiltinSpec
}

// Plan checks the request, given the rank count of its recorded trace set
// (0 when there is none), and resolves it. It owns every input rule of the
// front ends: the grid syntax, the inputs the grid needs
// (Grid.CheckInputs), the metrics windows, the synthetic model and every
// world it must generate, and the base platform. Every error is the
// caller's mistake, found before anything is built.
func (r *Request) Plan(ranks int) (*Plan, error) {
	grid, err := r.Grid.Parse()
	if err != nil {
		return nil, fmt.Errorf("bad grid: %w", err)
	}
	if err := grid.CheckInputs(ranks > 0, r.Synth != nil); err != nil {
		return nil, err
	}
	if err := metrics.CheckWindows(r.MetricsWindows); err != nil {
		return nil, err
	}
	p := &Plan{Config: Config{Grid: grid, Timed: r.Timed, Profile: r.Profile,
		Metrics: r.Metrics || r.MetricsWindows > 0, MetricsWindows: r.MetricsWindows,
		Fork: r.Fork == nil || *r.Fork}}
	if r.NoMPIModel {
		p.Model = smpi.Identity()
	}
	if r.Synth != nil {
		if p.Synth, p.SynthSpec, err = r.Synth.resolve(grid.World); err != nil {
			return nil, err
		}
	}
	// A pure topology sweep replays entirely on generated fabrics.
	if len(grid.Topo) > 0 {
		if r.Platform != "" {
			return nil, fmt.Errorf("platform is ignored when every cell sets a topology; drop it")
		}
		return p, nil
	}
	if r.Platform != "" {
		if p.Base, err = platform.ParseBuiltin(r.Platform); err != nil {
			return nil, err
		}
		return p, nil
	}
	// CheckInputs leaves a positive largest world: the trace's ranks or a
	// synthetic world.
	n := min(max(ranks, grid.MaxWorld()), platform.BordereauNodes)
	p.Base = &platform.BuiltinSpec{Cluster: "bordereau", Nodes: n, Cores: 1}
	return p, nil
}

// resolve decodes the model and the generation knobs. Every synthetic
// world must be generable before the sweep starts: a world the model's grid
// cannot tile is the caller's mistake, not a mid-sweep failure.
func (s *SynthSpec) resolve(worlds []int) (*synth.Model, synth.Spec, error) {
	var spec synth.Spec
	if len(s.Model) == 0 {
		return nil, spec, fmt.Errorf("synth needs a model (tigen fit JSON)")
	}
	m, err := synth.ReadModel(bytes.NewReader(s.Model))
	if err != nil {
		return nil, spec, fmt.Errorf("bad synth model: %w", err)
	}
	spec = synth.Spec{Seed: s.Seed, Jitter: s.Jitter}
	if s.Scale != "" {
		if spec.Law, err = synth.ParseLaw(s.Scale); err != nil {
			return nil, spec, fmt.Errorf("bad synth scale: %w", err)
		}
	}
	for _, w := range worlds {
		if w == 0 {
			continue
		}
		ws := spec
		ws.World = w
		if _, err := synth.NewGen(m, ws); err != nil {
			return nil, spec, fmt.Errorf("synth world %d: %w", w, err)
		}
	}
	return m, spec, nil
}
