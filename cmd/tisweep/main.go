// Command tisweep explores a grid of what-if platform scenarios in
// parallel: it loads one set of time-independent traces, expands the cross
// product of the -lat/-bw/-power/-fold/-hosts/-coll axes into scenarios,
// replays every scenario on its own simulation kernel across a bounded
// worker pool, and prints the per-scenario makespan table (optionally a
// JSON report and per-scenario timed traces).
//
// With -timed-dir, each scenario's timed trace streams into
// <dir>/scenario<i>.timed.tmp while the scenario replays and is renamed to
// scenario<i>.timed once its row completes, so files appear as scenarios
// complete, memory stays bounded by the scenarios in flight, and a failed
// or interrupted scenario leaves no file. The directory is created before
// the first replay.
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
	"io"
	"os"
	"os/signal"

	"tireplay/internal/cli"
	"tireplay/internal/metrics"
	"tireplay/internal/platform"
	"tireplay/internal/sweep"
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

	var fork bool
	switch *forkMode {
	case "on", "true":
		fork = true
	case "off", "false":
		fork = false
	default:
		fail(cli.Usagef("-fork must be on or off, got %q", *forkMode))
	}
	req := sweep.Request{
		Grid: sweep.GridSpec{Lat: *lat, Bw: *bw, Power: *power, Fold: *fold, Hosts: *hosts,
			Coll: *collSpecs, Topo: *topoSpecs, Fault: *faultSpecs, Ckpt: *ckptSpecs,
			World: *worldList},
		NoMPIModel:     *identity,
		Fork:           &fork,
		Timed:          *timedDir != "",
		Profile:        *profile,
		Metrics:        *metricsOn || *metricsJSON != "",
		MetricsWindows: *windows,
	}
	if *synthPath != "" {
		model, err := os.ReadFile(*synthPath)
		if err != nil {
			fail(err)
		}
		req.Synth = &sweep.SynthSpec{Model: model, Scale: *scaleLaw, Seed: *synthSeed, Jitter: *synthJitter}
	}
	// Without -dir there is no recorded trace set, whatever -ranks says.
	traceRanks := 0
	if *dir != "" {
		traceRanks = *ranks
	}
	plan, err := req.Plan(traceRanks)
	if err != nil {
		fail(cli.Usage(err))
	}

	cfg := plan.Config
	if *platformPath != "" {
		if cfg.Platform, err = platform.ParseFile(*platformPath); err != nil {
			fail(err)
		}
	} else if plan.Base != nil {
		if cfg.Platform, err = plan.Base.Build(); err != nil {
			fail(err)
		}
	}
	if traceRanks > 0 {
		if cfg.Traces, err = sweep.LoadDir(*dir, traceRanks); err != nil {
			fail(err)
		}
		defer cfg.Traces.Close()
	}
	engine := sweep.NewEngine(*workers)
	defer engine.Close()
	fmt.Fprintf(os.Stderr, "tisweep: %d scenarios on %d workers\n", cfg.Grid.Size(), engine.Workers())
	// The timed traces are the sweep's output, so their directory is
	// created with the sweep, before its first replay.
	if *timedDir != "" {
		if cfg.OpenTimed, err = sweep.TimedDir(*timedDir); err != nil {
			fail(err)
		}
	}

	// Interrupt stops scheduling new scenarios; running kernels finish,
	// their rows are flushed below (table and JSON alike) and their timed
	// traces published, the unstarted remainder stays marked "sweep:
	// canceled", and the exit status is 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := engine.Run(ctx, &cfg)
	if res == nil {
		fail(err)
	}
	interrupted := err != nil
	if interrupted {
		fmt.Fprintf(os.Stderr, "tisweep: sweep interrupted: %v; flushing completed scenarios\n", err)
	}

	res.RenderTable(os.Stdout)
	writeReport(*jsonPath, res.WriteJSON)
	writeReport(*metricsJSON, res.WriteMetricsJSON)
	if interrupted {
		os.Exit(cli.ExitCanceled)
	}
	for i := range res.Scenarios {
		if res.Scenarios[i].Err != "" {
			os.Exit(1)
		}
	}
}

// writeReport writes one report to path ('-' for stdout); an empty path
// writes nothing.
func writeReport(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}
	if err := write(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	cli.Fail("tisweep", err)
}
