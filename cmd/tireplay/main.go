// Command tireplay replays time-independent traces on a simulated platform
// and reports the predicted execution time — the trace replay tool of
// Section 5 (Figure 4: platform + deployment + traces in, simulated time
// out).
//
// Usage:
//
//	tireplay -platform cluster.xml -deployment depl.xml
//	tireplay -procs 8 -dir ti/            # built-in bordereau platform
//	tireplay -procs 8 -dir ti/ -topo torus:4x4   # generated topology
//	tireplay -procs 8 -dir ti/ -fault host:1@5   # fail-stop fault, abort policy
//	tireplay -procs 8 -dir ti/ -fault mtbf:3600,seed:7 -ckpt 60/5/10/30
//
// The deployment file names each process's trace file in its <argument>
// element, as in the paper; with -dir, SG_process<rank>.trace files are
// taken from the directory instead (falling back to the .trace.gz and .tib
// encodings). Binary .tib traces are memory-mapped and decoded in place, so
// startup on large traces is bounded by I/O alone.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"tireplay/internal/cli"
	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
	"tireplay/internal/units"
)

func main() {
	var (
		platformPath = flag.String("platform", "", "SimGrid platform XML file")
		deployPath   = flag.String("deployment", "", "deployment XML file (trace files as process arguments)")
		dir          = flag.String("dir", "", "directory of SG_process<rank>.trace files (with -procs)")
		procs        = flag.Int("procs", 0, "number of processes when using -dir")
		power        = flag.Float64("power", platform.BordereauPower, "per-core flop/s of the built-in platform")
		identity     = flag.Bool("no-mpi-model", false, "disable the piece-wise linear MPI model")
		timed        = flag.String("timed", "", "write a timed trace of the simulated execution to this file (named file.tmp until the replay completes)")
		profile      = flag.Bool("profile", false, "print a per-process profile of the simulated execution")
		collSpec     = flag.String("coll", "", "collective algorithms: an algorithm for all collectives (linear, binomial, auto, ...) or per-collective choices (\"bcast=binomial,allReduce=ring\")")
		topoSpec     = flag.String("topo", "", "replay on a generated topology instead of the built-in cluster (fat-tree:4 | torus:4x4x2 | dragonfly:2x4x2), with -dir/-procs")
		faultSpec    = flag.String("fault", "", "availability profile injected into the replay (\"host:1@5,hosts:25%@60,bw:0.5@10-20,mtbf:3600,seed:7\")")
		ckptSpec     = flag.String("ckpt", "", "checkpoint/restart protocol riding through fail-stop faults: \"interval[/cost[/restart[/down]]]\" in seconds")
	)
	flag.Parse()
	if !(*power > 0 && !math.IsInf(*power, 1)) {
		fail(cli.Usagef("-power %g is not a positive finite flop rate", *power))
	}

	var (
		b   *platform.Build
		d   *platform.Deployment
		err error
	)
	switch {
	case *platformPath != "" && *deployPath != "":
		p, err := platform.ParseFile(*platformPath)
		if err != nil {
			fail(err)
		}
		b, err = platform.Instantiate(p)
		if err != nil {
			fail(err)
		}
		d, err = platform.ParseDeploymentFile(*deployPath)
		if err != nil {
			fail(err)
		}
	case *dir != "" && *procs > 0:
		if *topoSpec != "" {
			spec, err := platform.ParseTopo(*topoSpec)
			if err != nil {
				fail(cli.Usage(err))
			}
			spec.Power = *power
			b, err = spec.Build()
			if err != nil {
				fail(err)
			}
		} else {
			b, err = platform.Instantiate(platform.BordereauCustom(*procs, 1, *power))
			if err != nil {
				fail(err)
			}
		}
		// The deployment is sized by the files found, not by -procs.
		files, err := trace.RankFiles(*dir, *procs)
		if err != nil {
			fail(err)
		}
		d, err = platform.RoundRobin(b.HostNames, len(files), 1)
		if err != nil {
			fail(err)
		}
		d, err = d.WithTraceArgs(files)
		if err != nil {
			fail(err)
		}
	default:
		fail(cli.Usagef("need either -platform and -deployment, or -dir and -procs"))
	}

	cfg := replay.Config{Model: smpi.Default()}
	if *identity {
		cfg.Model = smpi.Identity()
	}
	if cfg.Collectives, err = coll.ParseSpec(*collSpec); err != nil {
		fail(cli.Usage(err))
	}
	if cfg.Faults, err = platform.ParseFaultSpec(*faultSpec); err != nil {
		fail(cli.Usage(err))
	}
	if cfg.Ckpt, err = replay.ParseCkpt(*ckptSpec); err != nil {
		fail(cli.Usage(err))
	}
	var tracers replay.Tee
	var prof *replay.MetricsSink
	if *profile {
		prof = replay.NewProfile()
		tracers = append(tracers, prof)
	}
	var tw *replay.TimedTraceWriter
	var timedFile *os.File
	if *timed != "" {
		timedFile, err = os.Create(*timed + ".tmp")
		if err != nil {
			fail(err)
		}
		tw = replay.NewTimedTraceWriter(timedFile)
		tracers = append(tracers, tw)
	}
	if len(tracers) > 0 {
		cfg.TimedTracer = tracers
	}

	res, err := replay.RunFiles(b, d, cfg)
	if tw != nil {
		err = publishTimed(tw, timedFile, *timed, err)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("simulated execution time: %s\n", units.FormatSeconds(res.SimulatedTime))
	fmt.Printf("replayed %d actions in %v\n", res.Actions, res.WallTime)
	if r := res.Resilience; r != nil {
		fmt.Printf("fault-free time: %s; %d checkpoint(s) costing %s\n",
			units.FormatSeconds(r.FaultFree), r.Checkpoints, units.FormatSeconds(r.CkptTime))
		fmt.Printf("failures: %d; wasted %s (of which recomputed %s); downtime %s\n",
			r.Failures, units.FormatSeconds(r.Wasted), units.FormatSeconds(r.Recomputed),
			units.FormatSeconds(r.Downtime))
	}
	if prof != nil {
		fmt.Println()
		for _, warn := range prof.Render(os.Stdout, res.SimulatedTime) {
			fmt.Fprintf(os.Stderr, "tireplay: warning: %s\n", warn)
		}
	}
}

// publishTimed finishes the timed trace held by f, the temporary file
// path.tmp: after a replay that succeeded (runErr nil) it flushes, closes
// and renames f to path; on any failure it removes f and returns the error,
// so that path only ever holds the whole trace of a completed replay. A
// trace that lost even one record is worse than none: the writer's sticky
// error turns a short write anywhere in the run into a failed replay rather
// than a silently truncated trace.
func publishTimed(tw *replay.TimedTraceWriter, f *os.File, path string, runErr error) error {
	err := runErr
	if err == nil {
		if err = tw.Flush(); err == nil {
			err = f.Close()
		}
		if err == nil {
			err = os.Rename(f.Name(), path)
		}
		if err != nil {
			err = fmt.Errorf("writing timed trace %s: %w", path, err)
		}
	}
	if err != nil {
		_ = f.Close() // the file is removed; its close error has nowhere to go
		_ = os.Remove(f.Name())
	}
	return err
}

func fail(err error) {
	cli.Fail("tireplay", err)
}
