// Command bench is the end-to-end replay benchmark: it builds tisweep and
// tiserved from this repository, generates each workload's inputs from a
// seed, runs the real binaries as child processes and reports what a user
// of them sees (set-up time, wall time, replay throughput, CPU time, peak
// memory), after checking their outputs against each other and against
// pinned digests. With -trace 1 it instead decomposes the same work into
// its layers in-process and reports per-layer metrics.
//
// Run it from the repository root through its wrapper, which keeps every
// build product under .bench_build/:
//
//	bash bench/run.sh --workload lu-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload cg-coll --seed 1 --trace 1 --spans cg.spans.json
//	bash bench/run.sh --repeat 5 --seconds 20     # every workload, five rounds
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// runLimit bounds one workload run, children included.
const runLimit = 170 * time.Second

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to run: lu-sweep, cg-coll, synth-16k or serve-mixed (empty: all, see -repeat)")
		seed      = flag.Uint64("seed", 1, "seed the workload inputs derive from")
		seconds   = flag.Int("seconds", 20, "how long one workload run measures")
		traceMode = flag.Int("trace", 0, "1: run the traced per-layer decomposition instead of the end-to-end measurement")
		spansPath = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		repeat    = flag.Int("repeat", 1, "without -workload: run every workload this many rounds, interleaved, and print each metric's spread")
		update    = flag.Bool("update", false, "rewrite the golden digests of the workloads run (needs -seed 1)")
		scaleName = flag.String("scale", "full", "input sizes: full or smoke")
		root      = flag.String("root", ".", "repository root to build tisweep and tiserved from")
		work      = flag.String("work", ".bench_build", "directory for binaries, inputs and outputs")
		goldPath  = flag.String("golden", "bench/golden.json", "golden digests file")
		generate  = flag.String("generate", "", "write the named input into -generate-dir and exit (used by the benchmark itself)")
		genDir    = flag.String("generate-dir", "", "directory -generate writes into")
	)
	flag.Parse()
	if *generate != "" {
		s, err := parseInputSpec(*generate)
		if err == nil {
			err = s.write(*genDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) || *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments (see -h)")
		os.Exit(2)
	}
	size, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q\n", *scaleName)
		os.Exit(2)
	}
	e, err := setup(*root, *work, size, *seed)
	if err == nil {
		e.self, err = os.Executable()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	g, err := readGolden(*goldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: golden digests:", err)
		os.Exit(1)
	}
	opt := options{seconds: time.Duration(*seconds) * time.Second, traced: *traceMode == 1,
		spans: *spansPath, golden: g, update: *update}

	var res *result
	if *wlName == "" {
		res, err = suite(e, *repeat, opt)
	} else {
		var w *workload
		if w, err = findWorkload(*wlName); err == nil {
			res, err = runOne(e, w, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *update {
		if err := g.write(*goldPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench: golden digests:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// options are the per-run settings shared by every workload.
type options struct {
	seconds time.Duration
	traced  bool
	spans   string
	golden  *golden
	update  bool
}

// setup builds tisweep and tiserved from root into work/bin. The build is
// not timed.
func setup(root, work string, size sizes, seed uint64) (*env, error) {
	work, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(work, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/tisweep", "./cmd/tiserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building tisweep and tiserved: %v\n%s", err, out)
	}
	return &env{root: root, work: work, size: size, seed: seed,
		tisweep: filepath.Join(bin, "tisweep"), tiserved: filepath.Join(bin, "tiserved")}, nil
}

// runOne runs one workload, end to end or traced, prints its report and
// returns the result line.
func runOne(e *env, w *workload, opt options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var r *run
	var err error
	if opt.traced {
		r, err = measureTraced(ctx, e, w, opt.seconds, opt.spans, opt.golden, os.Stdout)
	} else {
		r, err = measureE2E(ctx, e, w, opt.seconds, opt.golden, opt.update, os.Stdout)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	r.res.Correct = len(r.problems) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	return &r.res, nil
}
