// Command tisweep explores a grid of what-if platform scenarios in
// parallel: it loads one set of time-independent traces, expands the cross
// product of the -lat/-bw/-power/-fold/-hosts/-coll axes into scenarios,
// replays every scenario on its own simulation kernel across a bounded
// worker pool, and prints the per-scenario makespan table (optionally a
// JSON report and per-scenario timed traces).
//
// Usage:
//
//	tisweep -dir ti/ -ranks 8 -power 1,2 -bw 1,10            # built-in bordereau platform
//	tisweep -platform cluster.xml -dir ti/ -ranks 64 \
//	        -lat 0.5,1,2 -bw 1,10 -fold 1,2 -workers 8 -json report.json
//	tisweep -dir ti/ -ranks 8 -coll "linear;binomial;auto"   # collective-algorithm study
//	tisweep -dir ti/ -ranks 8 \
//	        -topo "fat-tree:4,torus:4x4,dragonfly:2x4x2"     # topology study
//	tisweep -dir ti/ -ranks 8 -ckpt "none;30/5;60/5" \
//	        -fault "none;mtbf:3600,seed:7"                   # resilience study
//	tisweep -dir ti/ -ranks 8 -bw 0.25,1 -metrics \
//	        -metrics-json metrics.json                       # rank scenarios by POP efficiencies
//	tisweep -synth lu.model.json -world 1024,4096,16384 \
//	        -scale strong -topo dragonfly:8x16x8             # replay worlds nobody recorded
//
// With -synth, scenarios regenerate their rank streams from a fitted
// statistical model (tigen fit) at each -world size instead of reading
// recorded traces, so "LU at 16k ranks on a dragonfly" is one grid cell; a
// -world entry of 0 replays the recorded -dir set, mixing recorded and
// synthetic cells in one table.
//
// Scenario results are deterministic: the same grid produces byte-identical
// per-scenario timed traces whatever -workers is set to. Scenarios differing
// only in their -ckpt protocol share one replay: the protocol applies
// analytically to the fault-free makespan, so the first replays and the
// others reuse its run (-fork=off replays each one); results are identical
// either way. Fail-stops without a protocol play out in the kernel, so
// those scenarios always replay alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"tireplay/internal/cli"
	"tireplay/internal/metrics"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/sweep"
	"tireplay/internal/synth"
)

func main() {
	var (
		platformPath = flag.String("platform", "", "SimGrid platform XML file (default: built-in bordereau sized to -ranks)")
		dir          = flag.String("dir", "", "directory of SG_process<rank>.trace files (.trace.gz/.tib also resolved)")
		ranks        = flag.Int("ranks", 0, "number of ranks in the trace set")
		lat          = flag.String("lat", "", "comma-separated latency scale factors (default 1)")
		bw           = flag.String("bw", "", "comma-separated bandwidth scale factors (default 1)")
		power        = flag.String("power", "", "comma-separated flop-rate scale factors (default 1)")
		fold         = flag.String("fold", "", "comma-separated deployment folding factors (default 1)")
		hosts        = flag.String("hosts", "", "comma-separated host counts to deploy onto (default: all hosts)")
		collSpecs    = flag.String("coll", "", "semicolon-separated collective-algorithm configurations (\"linear;binomial;bcast=binomial,allReduce=ring\")")
		topoSpecs    = flag.String("topo", "", "comma-separated generated topologies replacing the base platform (\"fat-tree:4,torus:4x4x2,dragonfly:2x4x2\")")
		faultSpecs   = flag.String("fault", "", "semicolon-separated availability profiles (\"none;host:1@5;hosts:25%@10,mtbf:3600\")")
		ckptSpecs    = flag.String("ckpt", "", "semicolon-separated checkpoint/restart protocols (\"none;30/5;60/5/10/30\")")
		worldList    = flag.String("world", "", "comma-separated synthetic world sizes regenerated from -synth (0 = the recorded world)")
		synthPath    = flag.String("synth", "", "fitted model JSON (tigen fit) synthetic worlds regenerate from")
		scaleLaw     = flag.String("scale", "", "scaling law for synthetic worlds: weak, strong, or exponents like compute=-1:bytes=-0.5 (default weak)")
		synthSeed    = flag.Uint64("seed", 0, "jitter seed for synthetic worlds")
		synthJitter  = flag.Float64("jitter", 0, "compute-volume jitter fraction in [0,1) for synthetic worlds")
		workers      = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		forkMode     = flag.String("fork", "on", "replay sharing: scenarios differing only in -ckpt share one replay (on/off)")
		identity     = flag.Bool("no-mpi-model", false, "disable the piece-wise linear MPI model")
		jsonPath     = flag.String("json", "", "write the JSON report to this file ('-' for stdout)")
		timedDir     = flag.String("timed-dir", "", "write each scenario's timed trace to <dir>/scenario<i>.timed")
		profile      = flag.Bool("profile", false, "collect per-process profiles into the JSON report")
		metricsOn    = flag.Bool("metrics", false, "compute time-resolved POP metrics per scenario (adds efficiency columns to the table and the report)")
		metricsJSON  = flag.String("metrics-json", "", "write the deterministic metrics-only JSON view to this file ('-' for stdout); implies -metrics")
		windows      = flag.Int("windows", 0, fmt.Sprintf("fixed time windows per scenario for -metrics (default 10, at most %d)", metrics.MaxWindows))
	)
	flag.Parse()

	grid, err := sweep.GridSpec{Lat: *lat, Bw: *bw, Power: *power, Fold: *fold, Hosts: *hosts,
		Coll: *collSpecs, Topo: *topoSpecs, Fault: *faultSpecs, Ckpt: *ckptSpecs,
		World: *worldList}.Parse()
	if err != nil {
		fail(cli.Usage(err))
	}
	haveTraces, synthetic := *dir != "" && *ranks > 0, *synthPath != ""
	if err := grid.CheckInputs(haveTraces, synthetic); err != nil {
		fail(cli.Usagef("%v (traces: -dir with a positive -ranks; model: -synth)", err))
	}
	if err := metrics.CheckWindows(*windows); err != nil {
		fail(cli.Usage(err))
	}
	var fork bool
	switch *forkMode {
	case "on", "true":
		fork = true
	case "off", "false":
		fork = false
	default:
		fail(cli.Usagef("-fork must be on or off, got %q", *forkMode))
	}
	var base *platform.Platform
	if *platformPath != "" {
		if base, err = platform.ParseFile(*platformPath); err != nil {
			fail(err)
		}
	} else {
		// The built-in platform must hold the largest world of the sweep,
		// synthetic cells included.
		base = platform.BordereauWithCores(max(*ranks, grid.MaxWorld()), 1)
	}

	var traces *sweep.TraceSet
	if haveTraces {
		if traces, err = sweep.LoadDir(*dir, *ranks); err != nil {
			fail(err)
		}
		defer traces.Close()
	}
	var model *synth.Model
	var spec synth.Spec
	if synthetic {
		if model, err = synth.ReadModelFile(*synthPath); err != nil {
			fail(err)
		}
		spec = synth.Spec{Seed: *synthSeed, Jitter: *synthJitter}
		if *scaleLaw != "" {
			if spec.Law, err = synth.ParseLaw(*scaleLaw); err != nil {
				fail(cli.Usage(err))
			}
		}
	}

	cfg := &sweep.Config{
		Platform:       base,
		Grid:           grid,
		Traces:         traces,
		Synth:          model,
		SynthSpec:      spec,
		Workers:        *workers,
		Timed:          *timedDir != "",
		Profile:        *profile,
		Metrics:        *metricsOn || *metricsJSON != "",
		MetricsWindows: *windows,
		Fork:           fork,
	}
	if *identity {
		cfg.Model = smpi.Identity()
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "tisweep: %d scenarios on %d workers\n", grid.Size(), w)

	// Interrupt stops scheduling new scenarios; running kernels finish,
	// their rows are flushed below (table and JSON alike), the unstarted
	// remainder stays marked "sweep: canceled", and the exit status is 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := sweep.Run(ctx, cfg)
	if res == nil {
		fail(err)
	}
	interrupted := err != nil
	if interrupted {
		fmt.Fprintf(os.Stderr, "tisweep: sweep interrupted: %v; flushing completed scenarios\n", err)
	}

	res.RenderTable(os.Stdout)
	if *timedDir != "" {
		if err := os.MkdirAll(*timedDir, 0o755); err != nil {
			fail(err)
		}
		for i := range res.Scenarios {
			sc := &res.Scenarios[i]
			if sc.Err != "" {
				continue
			}
			p := filepath.Join(*timedDir, fmt.Sprintf("scenario%d.timed", sc.Index))
			if err := os.WriteFile(p, sc.TimedTrace, 0o644); err != nil {
				fail(err)
			}
		}
	}
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		if err := res.WriteJSON(out); err != nil {
			fail(err)
		}
	}
	if *metricsJSON != "" {
		out := os.Stdout
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		if err := res.WriteMetricsJSON(out); err != nil {
			fail(err)
		}
	}
	if interrupted {
		os.Exit(cli.ExitCanceled)
	}
	for i := range res.Scenarios {
		if res.Scenarios[i].Err != "" {
			os.Exit(1)
		}
	}
}

func fail(err error) {
	cli.Fail("tisweep", err)
}
