package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/sweep"
	"tireplay/internal/synth"
	"tireplay/internal/trace"
)

// workers is the pool width of every measured program: the benchmark box
// has two cores, and the load must not depend on the machine it runs on.
const workers = 2

// sweepFlags are one tisweep invocation's inputs and grid, kept as the flag
// strings so the measured child and the in-process traced run parse the
// very same text.
type sweepFlags struct {
	dir   string // recorded trace directory (-dir)
	ranks int    // its recorded world (-ranks)
	model string // fitted model file (-synth)
	world string
	law   string
	seed  uint64
	jit   float64

	lat, bw, coll, ckpt, topo string
	metrics, timed            bool
}

// args renders the tisweep command line without its output flags.
func (f sweepFlags) args() []string {
	var a []string
	add := func(flag, v string) {
		if v != "" {
			a = append(a, flag, v)
		}
	}
	if f.dir != "" {
		a = append(a, "-dir", f.dir, "-ranks", strconv.Itoa(f.ranks))
	}
	if f.model != "" {
		a = append(a, "-synth", f.model, "-world", f.world, "-scale", f.law,
			"-seed", strconv.FormatUint(f.seed, 10), "-jitter", strconv.FormatFloat(f.jit, 'g', -1, 64))
	}
	add("-lat", f.lat)
	add("-bw", f.bw)
	add("-coll", f.coll)
	add("-ckpt", f.ckpt)
	add("-topo", f.topo)
	return append(a, "-workers", strconv.Itoa(workers))
}

// grid parses the axes as tisweep does.
func (f sweepFlags) grid() (sweep.Grid, error) {
	var g sweep.Grid
	var err error
	if g.LatencyScale, err = sweep.ParseFloatList(f.lat); err != nil {
		return g, err
	}
	if g.BandwidthScale, err = sweep.ParseFloatList(f.bw); err != nil {
		return g, err
	}
	if g.Coll, err = sweep.ParseCollList(f.coll); err != nil {
		return g, err
	}
	if g.Ckpt, err = sweep.ParseCkptList(f.ckpt); err != nil {
		return g, err
	}
	if g.Topo, err = sweep.ParseTopoList(f.topo); err != nil {
		return g, err
	}
	g.World, err = sweep.ParseWorldList(f.world)
	return g, err
}

// inputs is a workload's input loaded in-process with the calls tisweep's
// loader makes: text traces parsed into memory, binary traces mapped, a
// fitted model read.
type inputs struct {
	perRank [][]trace.Action     // parsed text ranks
	mapped  []*trace.MappedTrace // mapped binary ranks
	model   *synth.Model
	spec    synth.Spec
	bytes   int64 // input bytes on disk
	// traces is the same input as the engine's shared trace set.
	traces *sweep.TraceSet
}

func (in *inputs) close() {
	for _, m := range in.mapped {
		if m != nil {
			m.Close()
		}
	}
	if in.traces != nil {
		in.traces.Close()
	}
}

// source opens a fresh cursor over rank r's recorded trace.
func (in *inputs) source(r int) (replay.Source, error) {
	if in.mapped != nil {
		return in.mapped[r].Cursor()
	}
	return replay.SliceSource(in.perRank[r]), nil
}

// load reads the recorded traces or the fitted model, as sweep.LoadDir and
// synth.ReadModelFile do.
func (f sweepFlags) load() (in *inputs, err error) {
	in = &inputs{}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if f.dir != "" {
		in.bytes = dirBytes(f.dir)
		if _, err := os.Stat(filepath.Join(f.dir, trace.BinaryFileName(0))); err == nil {
			in.mapped = make([]*trace.MappedTrace, f.ranks)
			for r := range in.mapped {
				if in.mapped[r], err = trace.OpenMapped(filepath.Join(f.dir, trace.BinaryFileName(r))); err != nil {
					return nil, err
				}
				if _, err := in.mapped[r].Cursor(); err != nil {
					return nil, err
				}
			}
		} else {
			in.perRank = make([][]trace.Action, f.ranks)
			for r := range in.perRank {
				if in.perRank[r], err = trace.ReadFile(filepath.Join(f.dir, trace.ProcessFileName(r))); err != nil {
					return nil, err
				}
			}
		}
	}
	if f.model != "" {
		if in.model, err = synth.ReadModelFile(f.model); err != nil {
			return nil, err
		}
		in.spec = synth.Spec{Seed: f.seed, Jitter: f.jit}
		if in.spec.Law, err = synth.ParseLaw(f.law); err != nil {
			return nil, err
		}
		in.bytes += dirBytes(f.model)
	}
	return in, nil
}

// share hands the loaded input to the engine: parsed text ranks as they
// are, binary ranks mapped once more by the engine's own loader.
func (in *inputs) share(f sweepFlags) error {
	switch {
	case in.perRank != nil:
		in.traces = sweep.TracesFromActions(in.perRank)
	case in.mapped != nil:
		ts, err := sweep.LoadDir(f.dir, f.ranks)
		if err != nil {
			return err
		}
		in.traces = ts
	}
	return nil
}

// config builds the sweep tisweep would run for these flags.
func (f sweepFlags) config(in *inputs, g sweep.Grid, nworkers int, fork bool) *sweep.Config {
	maxN := f.ranks
	for _, w := range g.World {
		maxN = max(maxN, w)
	}
	return &sweep.Config{
		Platform:  platform.BordereauWithCores(maxN, 1),
		Grid:      g,
		Traces:    in.traces,
		Synth:     in.model,
		SynthSpec: in.spec,
		Workers:   nworkers,
		Timed:     f.timed,
		Metrics:   f.metrics,
		Fork:      fork,
	}
}

// dirBytes sums the sizes of the regular files at path (a file or a
// directory).
func dirBytes(path string) int64 {
	var n int64
	_ = filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func prepareLU(e *env) (runner, error) {
	n := e.size.ranks
	dir, err := e.input(inputSpec{"lu", e.size.luClass, n, "text"})
	if err != nil {
		return nil, err
	}
	r := newRNG(e.seed, "lu-sweep")
	f := sweepFlags{dir: dir, ranks: n,
		lat: floats(r.near(0.5), r.near(2)),
		bw:  floats(r.near(0.5), r.near(4))}
	return newSweepRunner(e, "lu-sweep", f)
}

func prepareCG(e *env) (runner, error) {
	n := e.size.ranks
	dir, err := e.input(inputSpec{"cg", e.size.cgClass, n, "tib"})
	if err != nil {
		return nil, err
	}
	// The checkpoint protocol is analytic, so its interval changes the
	// rows without changing the replay work; it spans the makespans of
	// the collective variants (about 0.7 to 1.7 simulated seconds).
	r := newRNG(e.seed, "cg-coll")
	interval := r.logUniform(0.2, 0.6)
	f := sweepFlags{dir: dir, ranks: n,
		coll:    "linear;binomial;auto;allReduce=ring",
		ckpt:    "none;" + floats(interval) + "/0.05",
		metrics: true, timed: true}
	return newSweepRunner(e, "cg-coll", f)
}

func prepareSynth(e *env) (runner, error) {
	// The model is fitted on LU class S recorded on 16 ranks at every
	// scale; only the synthetic world changes.
	dir, err := e.input(inputSpec{"lu", "S", 16, "model"})
	if err != nil {
		return nil, err
	}
	r := newRNG(e.seed, "synth-16k")
	f := sweepFlags{model: filepath.Join(dir, "model.json"),
		world: strconv.Itoa(e.size.synthWorld), law: "strong", seed: e.seed, jit: 0.05,
		topo: "dragonfly:8x16x8", bw: floats(1, r.near(2))}
	return newSweepRunner(e, "synth-16k", f)
}

// sweepRunner measures one tisweep workload.
type sweepRunner struct {
	e     *env
	name  string
	flags sweepFlags
	cells int
	ready string // tisweep's set-up line
}

func newSweepRunner(e *env, name string, f sweepFlags) (*sweepRunner, error) {
	g, err := f.grid()
	if err != nil {
		return nil, err
	}
	cells := g.Size()
	return &sweepRunner{e: e, name: name, flags: f, cells: cells,
		ready: fmt.Sprintf("tisweep: %d scenarios on %d workers", cells, workers)}, nil
}

// command returns tisweep's arguments with its outputs under out.
func (s *sweepRunner) command(out string) []string {
	a := append(s.flags.args(), "-json", filepath.Join(out, "rows.json"))
	if s.flags.metrics {
		a = append(a, "-metrics-json", filepath.Join(out, "metrics.json"))
	}
	if s.flags.timed {
		a = append(a, "-timed-dir", filepath.Join(out, "timed"))
	}
	return a
}

func (s *sweepRunner) probe(ctx context.Context) (time.Duration, error) {
	out, err := s.e.outDir(s.name + "-probe")
	if err != nil {
		return 0, err
	}
	c, err := startChild(ctx, s.e.tisweep, s.command(out), s.ready)
	if err != nil {
		return 0, err
	}
	setup, err := c.waitReady()
	c.kill()
	return setup, err
}

func (s *sweepRunner) rep(ctx context.Context) rep {
	r := rep{attempted: s.cells}
	fail := func(err error) rep {
		r.err, r.failed = err, s.cells
		return r
	}
	out, err := s.e.outDir(s.name)
	if err != nil {
		return fail(err)
	}
	c, err := startChild(ctx, s.e.tisweep, s.command(out), s.ready)
	if err != nil {
		return fail(err)
	}
	setup, rerr := c.waitReady()
	x := c.wait()
	if rerr != nil {
		return fail(rerr)
	}
	if x.err != nil {
		return fail(x.err)
	}
	r.setup, r.wall, r.cpu, r.maxRSS = setup, x.wall, x.cpu, x.maxRSS
	r.replayWall = x.wall - setup

	raw, err := os.ReadFile(filepath.Join(out, "rows.json"))
	if err != nil {
		return fail(err)
	}
	sum, err := summarizeRows(raw, s.cells)
	if err != nil {
		return fail(err)
	}
	r.actions, r.failed = sum.actions, sum.failed
	r.notes = map[string]float64{"forked_ratio": sum.forkedRatio(), "prefix_share": sum.prefixShare()}
	if r.digests, err = s.digests(out, raw); err != nil {
		return fail(err)
	}
	return r
}

// digests names a sweep's outputs: the deterministic projection of its
// rows, and for cg-coll the metrics-only JSON and the timed traces.
func (s *sweepRunner) digests(out string, rows []byte) (map[string]string, error) {
	d := map[string]string{}
	var err error
	if d["rows"], err = rowsDigest(rows); err != nil {
		return nil, err
	}
	if s.flags.metrics {
		b, err := os.ReadFile(filepath.Join(out, "metrics.json"))
		if err != nil {
			return nil, err
		}
		d["metrics"] = bytesDigest(b)
	}
	if s.flags.timed {
		paths := make([]string, s.cells)
		for i := range paths {
			paths[i] = filepath.Join(out, "timed", fmt.Sprintf("scenario%d.timed", i))
		}
		if d["timed"], _, err = trace.DigestFiles(paths); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// rowSummary totals a sweep report's rows.
type rowSummary struct {
	rows, failed, forked int
	actions, prefix      int64
}

func (r rowSummary) forkedRatio() float64 { return float64(r.forked) / float64(r.rows) }
func (r rowSummary) prefixShare() float64 { return float64(r.prefix) / float64(r.actions) }

// summarizeRows reads tisweep's -json report (sweep.Result.WriteJSON) and
// counts the rows that failed: rows with an error, rows that replayed
// nothing, and rows missing from the report.
func summarizeRows(raw []byte, want int) (rowSummary, error) {
	var res struct {
		Scenarios []struct {
			Actions       int64  `json:"actions"`
			Err           string `json:"err"`
			Forked        bool   `json:"forked"`
			PrefixActions int64  `json:"prefix_actions"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return rowSummary{}, fmt.Errorf("sweep report: %w", err)
	}
	s := rowSummary{rows: len(res.Scenarios)}
	if s.rows < want {
		s.failed = want - s.rows
	}
	for _, sc := range res.Scenarios {
		if sc.Err != "" || sc.Actions <= 0 {
			s.failed++
		}
		s.actions += sc.Actions
		s.prefix += sc.PrefixActions
		if sc.Forked {
			s.forked++
		}
	}
	return s, nil
}

// rowsDigest hashes the rows of a sweep report without the fields that vary
// between runs of the same question: host wall time, and whether a row
// replayed from a shared fork prefix (forking is proven result-identical).
func rowsDigest(raw []byte) (string, error) {
	var res struct {
		Scenarios []map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", fmt.Errorf("sweep report: %w", err)
	}
	h := sha256.New()
	for _, row := range res.Scenarios {
		delete(row, "wall_ns")
		delete(row, "forked")
		delete(row, "prefix_actions")
		b, err := json.Marshal(row) // map keys marshal sorted
		if err != nil {
			return "", err
		}
		h.Write(append(b, '\n'))
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), nil
}

func bytesDigest(b []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(b)) }
