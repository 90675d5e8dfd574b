// Package sweep is the parallel what-if engine: it expands a grid of
// hypothetical platform scenarios — latency/bandwidth/power scalings,
// deployment foldings, host counts — and replays one shared time-independent
// trace against every scenario, each on its own independent simulation
// kernel, across a bounded worker pool.
//
// This realises at scale the paper's core promise (Section 5: "a wide range
// of what-if scenarios can be explored without any modification of the
// simulator"): the trace is acquired once, loaded once as one binary image
// per rank, and shared read-only between workers; each replay runs on its
// own kernel and owns every piece of mutable state it touches (kernel,
// pools, interning tables, tracer), so results are byte-identical whatever
// the worker count. Scenarios that differ
// only in their checkpoint protocol share one replay (Config.Fork): the
// protocol applies analytically to the fault-free makespan.
//
// The package is the one front door for sweep inputs: tisweep and tiserved
// both fill a Request, and Request.Plan checks and resolves it for both:
// the axes (GridSpec.Parse), the inputs the grid needs (Grid.CheckInputs),
// the metrics windows, every synthetic world and the base platform.
// Engine.Run applies Grid.CheckInputs again for callers that build a
// Config directly.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/synth"
)

// Grid spans the scenario space as a cross product of its axes. Empty axes
// default to the single identity value, so the zero Grid holds exactly one
// scenario: the unmodified platform.
type Grid struct {
	// LatencyScale multiplies every link latency of the base platform.
	LatencyScale []float64
	// BandwidthScale multiplies every link bandwidth.
	BandwidthScale []float64
	// PowerScale multiplies every host's per-core flop rate.
	PowerScale []float64
	// Fold are deployment folding factors: fold consecutive ranks share one
	// host (F-fold in Table 2 of the paper).
	Fold []int
	// Hosts are candidate host counts; each value deploys onto the first
	// that-many hosts of the platform (0 means all hosts).
	Hosts []int
	// Coll are collective-algorithm configurations (see internal/coll):
	// the same trace replayed under different collective decompositions —
	// the scenario-diversity axis the paper's fixed star could not span.
	Coll []coll.Config
	// Topo are generated topologies (see platform.ParseTopo): each entry
	// replaces the base platform with a fat-tree, torus or dragonfly
	// interconnect, so one sweep compares the same trace across network
	// architectures. The scale axes above compose with it (they multiply
	// the generator's base quantities).
	Topo []platform.TopoSpec
	// Faults are availability profiles (see platform.ParseFaultSpec): each
	// entry replays the trace with those fail-stop faults and degradation
	// windows injected. A nil entry is the fault-free cell. Fault host
	// indices address the scenario deployment's process slots.
	Faults []*platform.FaultSpec
	// Ckpt are checkpoint/restart protocols (see replay.ParseCkpt) crossed
	// with the fault axis: a nil entry replays faulted cells under the
	// abort policy (lost ranks reported as the scenario error), a non-nil
	// one rides through failures and reports the waste accounting.
	Ckpt []*replay.Ckpt
	// World are synthetic world sizes: each entry replays the sweep's
	// fitted model (Config.Synth) regenerated at that many ranks instead of
	// the recorded trace set, so "the application at 16k ranks on this
	// topology" is one more grid cell. 0 stands for the recorded world
	// (replaying Config.Traces); positive entries require Config.Synth.
	World []int
}

func orFloats(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{1}
	}
	return v
}

func orInts(v []int, def int) []int {
	if len(v) == 0 {
		return []int{def}
	}
	return v
}

func orColl(v []coll.Config) []coll.Config {
	if len(v) == 0 {
		return []coll.Config{{}}
	}
	return v
}

// orTopos returns the topology axis as pointers, nil standing for the base
// platform when the axis is empty.
func orTopos(v []platform.TopoSpec) []*platform.TopoSpec {
	if len(v) == 0 {
		return []*platform.TopoSpec{nil}
	}
	out := make([]*platform.TopoSpec, len(v))
	for i := range v {
		spec := v[i]
		out[i] = &spec
	}
	return out
}

// orFaults returns the fault axis, nil standing for the fault-free cell
// when the axis is empty.
func orFaults(v []*platform.FaultSpec) []*platform.FaultSpec {
	if len(v) == 0 {
		return []*platform.FaultSpec{nil}
	}
	return v
}

// orCkpts returns the checkpoint axis, nil standing for the abort policy.
func orCkpts(v []*replay.Ckpt) []*replay.Ckpt {
	if len(v) == 0 {
		return []*replay.Ckpt{nil}
	}
	return v
}

// Size returns the number of scenarios the grid expands to, saturating at
// math.MaxInt when the product of the axis lengths would overflow an int.
func (g Grid) Size() int {
	n := 1
	for _, l := range [...]int{len(g.LatencyScale), len(g.BandwidthScale), len(g.PowerScale),
		len(g.Fold), len(g.Hosts), len(g.Coll), len(g.Topo), len(g.Faults), len(g.Ckpt), len(g.World)} {
		l = max(l, 1) // an empty axis holds its single identity value
		if n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// MaxWorld returns the grid's largest synthetic world size, 0 when it has
// no synthetic cell.
func (g Grid) MaxWorld() int {
	n := 0
	for _, w := range g.World {
		n = max(n, w)
	}
	return n
}

// CheckInputs states which inputs a sweep over the grid needs, for every
// front end (Engine.Run, Request.Plan) alike: haveTraces reports a
// recorded trace set, haveModel a fitted synthetic model. A positive world
// needs a model; a model needs at least one positive world; and recorded
// cells — a grid with no world axis or a 0 entry — need traces. A grid
// whose size saturates (Size returns math.MaxInt) is rejected outright:
// no front end could expand it.
func (g Grid) CheckInputs(haveTraces, haveModel bool) error {
	if g.Size() == math.MaxInt {
		return fmt.Errorf("sweep: grid expands to %d or more scenarios", math.MaxInt)
	}
	recorded := len(g.World) == 0
	for _, w := range g.World {
		if w == 0 {
			recorded = true
		} else if !haveModel {
			return fmt.Errorf("sweep: world %d needs a fitted model to regenerate from", w)
		}
	}
	if haveModel && g.MaxWorld() == 0 {
		return fmt.Errorf("sweep: a fitted model needs a positive world on the grid")
	}
	if recorded && !haveTraces {
		return fmt.Errorf("sweep: recorded cells (no world axis or a 0 entry) need a trace set")
	}
	return nil
}

// Scenario is one fully instantiated cell of the grid.
type Scenario struct {
	// Index is the scenario's position in the deterministic expansion
	// order; results are always reported in this order.
	Index          int     `json:"index"`
	LatencyScale   float64 `json:"latency_scale"`
	BandwidthScale float64 `json:"bandwidth_scale"`
	PowerScale     float64 `json:"power_scale"`
	Fold           int     `json:"fold"`
	// Hosts is the host-count limit (0 = every platform host).
	Hosts int `json:"hosts,omitempty"`
	// Coll is the scenario's collective-algorithm configuration; it always
	// marshals, as the -coll spec string ("default" when unset).
	Coll coll.Config `json:"coll"`
	// Topo, when non-nil, replaces the base platform with a generated
	// topology; it marshals as the -topo spec string.
	Topo *platform.TopoSpec `json:"topo,omitempty"`
	// Fault, when non-nil, is the availability profile injected into this
	// cell's replay; it marshals as the -fault spec string.
	Fault *platform.FaultSpec `json:"fault,omitempty"`
	// Ckpt, when non-nil, is the checkpoint/restart protocol of this cell;
	// it marshals as the -ckpt spec string.
	Ckpt *replay.Ckpt `json:"ckpt,omitempty"`
	// World, when positive, makes this a synthetic cell: its traces are
	// regenerated at this world size from the sweep's fitted model instead
	// of read from the recorded set.
	World int `json:"world,omitempty"`

	// synthGen is the resolved generator of a synthetic cell, shared
	// read-only by every worker touching the scenario (one generator per
	// distinct world; per-rank cursors are created per replay).
	synthGen *synth.Gen
}

// Name renders a compact scenario label, e.g. "lat=0.5 bw=2 pow=1 fold=2".
func (s Scenario) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lat=%s bw=%s pow=%s fold=%d",
		trimFloat(s.LatencyScale), trimFloat(s.BandwidthScale), trimFloat(s.PowerScale), s.Fold)
	if s.Hosts > 0 {
		fmt.Fprintf(&b, " hosts=%d", s.Hosts)
	}
	if !s.Coll.IsDefault() {
		fmt.Fprintf(&b, " coll=%s", s.Coll)
	}
	if s.Topo != nil {
		fmt.Fprintf(&b, " topo=%s", s.Topo)
	}
	if s.Fault != nil {
		fmt.Fprintf(&b, " fault=%s", s.Fault)
	}
	if s.Ckpt != nil {
		fmt.Fprintf(&b, " ckpt=%s", s.Ckpt)
	}
	if s.World > 0 {
		fmt.Fprintf(&b, " world=%d", s.World)
	}
	return b.String()
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Expand lists the grid's scenarios in deterministic nested-axis order
// (world sizes outermost, then checkpoint protocols, faults, topologies,
// collectives, hosts, fold, power, bandwidth, latency innermost).
func (g Grid) Expand() []Scenario {
	lats := orFloats(g.LatencyScale)
	bws := orFloats(g.BandwidthScale)
	pows := orFloats(g.PowerScale)
	folds := orInts(g.Fold, 1)
	hosts := orInts(g.Hosts, 0)
	colls := orColl(g.Coll)
	topos := orTopos(g.Topo)
	faults := orFaults(g.Faults)
	ckpts := orCkpts(g.Ckpt)
	worlds := orInts(g.World, 0)
	out := make([]Scenario, 0, g.Size())
	for _, wd := range worlds {
		for _, ck := range ckpts {
			for _, fs := range faults {
				for _, tp := range topos {
					for _, cc := range colls {
						for _, h := range hosts {
							for _, f := range folds {
								for _, p := range pows {
									for _, bw := range bws {
										for _, lat := range lats {
											out = append(out, Scenario{
												Index:          len(out),
												LatencyScale:   lat,
												BandwidthScale: bw,
												PowerScale:     p,
												Fold:           f,
												Hosts:          h,
												Coll:           cc,
												Topo:           tp,
												Fault:          fs,
												Ckpt:           ck,
												World:          wd,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// GridSpec names the axes of a scenario grid as strings, each in the
// syntax of the corresponding tisweep flag and of the tiserved request's
// grid object. An empty string leaves its axis at the identity value.
type GridSpec struct {
	Lat   string `json:"lat,omitempty"`
	Bw    string `json:"bw,omitempty"`
	Power string `json:"power,omitempty"`
	Fold  string `json:"fold,omitempty"`
	Hosts string `json:"hosts,omitempty"`
	Coll  string `json:"coll,omitempty"`
	Topo  string `json:"topo,omitempty"`
	Fault string `json:"fault,omitempty"`
	Ckpt  string `json:"ckpt,omitempty"`
	// World is the synthetic world-size axis ("1024,4096,16384"; 0 is the
	// recorded world). Positive entries regenerate rank streams from a
	// fitted model instead of the recorded traces.
	World string `json:"world,omitempty"`
}

// Parse parses every axis of the spec into a Grid, failing on the first
// malformed one.
func (s GridSpec) Parse() (Grid, error) {
	var g Grid
	var err error
	if g.LatencyScale, err = ParseFloatList(s.Lat); err != nil {
		return Grid{}, err
	}
	if g.BandwidthScale, err = ParseFloatList(s.Bw); err != nil {
		return Grid{}, err
	}
	if g.PowerScale, err = ParseFloatList(s.Power); err != nil {
		return Grid{}, err
	}
	if g.Fold, err = ParseIntList(s.Fold); err != nil {
		return Grid{}, err
	}
	if g.Hosts, err = ParseIntList(s.Hosts); err != nil {
		return Grid{}, err
	}
	if g.Coll, err = ParseCollList(s.Coll); err != nil {
		return Grid{}, err
	}
	if g.Topo, err = ParseTopoList(s.Topo); err != nil {
		return Grid{}, err
	}
	if g.Faults, err = ParseFaultList(s.Fault); err != nil {
		return Grid{}, err
	}
	if g.Ckpt, err = ParseCkptList(s.Ckpt); err != nil {
		return Grid{}, err
	}
	if g.World, err = ParseWorldList(s.World); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// ParseFloatList parses a comma-separated list of scale factors, the syntax
// of tisweep's grid flags ("0.5,1,2").
func ParseFloatList(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad factor %q in %q", part, s)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("sweep: factor %g in %q must be positive and finite", v, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseList parses one sep-separated axis, each entry through parse. Empty
// entries — a trailing or doubled separator — are skipped rather than read
// as a scenario, which keeps an axis free of silent duplicate identity
// cells.
func parseList[T any](s, sep string, parse func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, sep) {
		if strings.TrimSpace(part) == "" {
			continue
		}
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseCollList parses tisweep's -coll axis: semicolon-separated collective
// specs, each in the -coll syntax of internal/coll.ParseSpec
// ("linear;binomial;bcast=binomial,allReduce=ring").
func ParseCollList(s string) ([]coll.Config, error) { return parseList(s, ";", coll.ParseSpec) }

// ParseTopoList parses tisweep's -topo axis: comma-separated topology specs
// in the platform.ParseTopo syntax
// ("fat-tree:4,torus:4x4x2,dragonfly:2x4x2").
func ParseTopoList(s string) ([]platform.TopoSpec, error) {
	return parseList(s, ",", platform.ParseTopo)
}

// ParseFaultList parses tisweep's -fault axis: semicolon-separated fault
// specs, each in the platform.ParseFaultSpec syntax
// ("none;host:1@5;hosts:25%@10,mtbf:3600"). "none" entries are kept as the
// fault-free cell, so the axis can compare faulted against clean runs.
func ParseFaultList(s string) ([]*platform.FaultSpec, error) {
	return parseList(s, ";", platform.ParseFaultSpec)
}

// ParseCkptList parses tisweep's -ckpt axis: semicolon-separated
// checkpoint/restart specs, each in the replay.ParseCkpt syntax
// ("none;30/5;60/5/10/30"). "none" entries are kept as the no-protocol
// (abort policy) cell.
func ParseCkptList(s string) ([]*replay.Ckpt, error) { return parseList(s, ";", replay.ParseCkpt) }

// ParseWorldList parses tisweep's -world axis: comma-separated world sizes
// ("1024,4096,16384"). A 0 entry stands for the recorded world (replaying
// the -dir trace set), so one sweep can compare recorded against synthetic
// cells.
func ParseWorldList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sweep: bad world size %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseIntList parses a comma-separated list of positive integers ("1,2,4").
func ParseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("sweep: bad count %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}
