package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// sizes holds the input sizes of one scale. The full scale is what the
// benchmark measures; the smoke scale runs the same code paths on small
// inputs so the package test covers every workload in seconds.
type sizes struct {
	name       string
	ranks      int    // recorded world of lu-sweep, cg-coll and serve-mixed
	luClass    string // lu-sweep's NPB LU class
	cgClass    string // cg-coll's NPB CG class
	synthWorld int    // synth-16k's synthetic world size
	serveGrids int    // serve-mixed: distinct grids per repetition
	serveHits  int    // serve-mixed: repeats per grid after its miss
	probes     int    // set-up-only child starts per run
}

var scales = map[string]sizes{
	"full":  {name: "full", ranks: 16, luClass: "W", cgClass: "A", synthWorld: 16384, serveGrids: 24, serveHits: 10, probes: 5},
	"smoke": {name: "smoke", ranks: 4, luClass: "S", cgClass: "S", synthWorld: 1024, serveGrids: 2, serveHits: 9, probes: 1},
}

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each exists. The names are cited by later changes; do
// not rename them.
type workload struct {
	name string
	// prepare writes the workload's inputs under the work directory and
	// returns its runner. Inputs derive from the seed alone.
	prepare func(e *env) (runner, error)
}

var workloads = []workload{
	{"lu-sweep", prepareLU},
	{"cg-coll", prepareCG},
	{"synth-16k", prepareSynth},
	{"serve-mixed", prepareServe},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// runner executes one prepared workload.
type runner interface {
	// probe starts the program, waits for the end of its set-up, stops it
	// and returns the set-up time. Probes also warm the page cache.
	probe(ctx context.Context) (time.Duration, error)
	// rep runs one measured repetition.
	rep(ctx context.Context) rep
	// traced decomposes the workload into its layers in-process.
	traced(ctx context.Context, t *tracer) error
}

// rep is the outcome of one measured repetition.
type rep struct {
	setup time.Duration
	// wall is the measured phase: the whole child for a sweep, the load
	// phase for the daemon.
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64
	// actions are the trace actions replayed during replayWall.
	actions    int64
	replayWall time.Duration
	// attempted and failed count rows (sweeps) or requests (daemon).
	attempted, failed int
	// digests name the rep's outputs; equal reps have equal digests.
	digests map[string]string
	// notes are per-rep facts printed for the reader, not metrics.
	notes map[string]float64
	// Latencies of daemon requests by cache outcome.
	missMS, hitUS []float64
	err           error
}

// env is what every workload needs to run.
type env struct {
	root     string // repository root the programs are built from
	work     string // inputs, binaries and per-repetition outputs
	tisweep  string
	tiserved string
	size     sizes
	seed     uint64
	// self is this program, run with -generate to write inputs in a child
	// process; empty generates them in-process.
	self string
}

// outDir returns an emptied per-repetition output directory.
func (e *env) outDir(name string) (string, error) {
	dir := filepath.Join(e.work, "runs", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// rng is splitmix64: a tiny generator whose sequence for a seed never
// changes with the Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*31 + uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// logUniform draws from [lo, hi] uniformly on a log scale, rounded to four
// significant digits so the factor prints the same in every row name.
func (r *rng) logUniform(lo, hi float64) float64 {
	v := lo * math.Exp(r.float()*math.Log(hi/lo))
	v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return v
}

// near draws a factor within 5% of anchor. Replay cost depends on the
// platform factors, so seeds move each factor around a fixed anchor rather
// than across the whole range: the rows change with the seed, the amount of
// work does not.
func (r *rng) near(anchor float64) float64 {
	return r.logUniform(anchor*0.95, anchor*1.05)
}

func floats(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
