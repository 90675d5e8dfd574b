// Command tistat prints statistics and consistency diagnostics for
// time-independent trace files: action counts by type, computation and
// communication volumes, text size, and the cross-process verification
// results (unmatched messages, dangling requests, diverging collectives).
//
// With -metrics the arguments are *timed* traces instead (the output of
// tireplay -timed / tisweep -timed), and tistat computes the time-resolved
// POP metrics report — load balance, communication efficiency, and the
// serialization/transfer split, per fixed time window and per detected
// phase. Several files merge into one analysis by process name, e.g. the
// timed traces of separate runs that together cover one application.
//
// Usage:
//
//	tistat ti/SG_process*.trace
//	tistat -metrics timed.trace
//	tistat -metrics -windows 20 -json timed.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"tireplay/internal/cli"
	"tireplay/internal/metrics"
	"tireplay/internal/replay"
	"tireplay/internal/trace"
	"tireplay/internal/units"
)

func main() {
	verify := flag.Bool("verify", true, "run cross-process consistency checks")
	metricsMode := flag.Bool("metrics", false, "treat arguments as timed traces and print time-resolved POP metrics")
	windows := flag.Int("windows", 10, fmt.Sprintf("number of fixed time windows for -metrics (at most %d)", metrics.MaxWindows))
	jsonOut := flag.Bool("json", false, "emit the -metrics report as JSON instead of tables")
	flag.Parse()
	files := flag.Args()
	if len(files) == 0 {
		cli.Fail("tistat", cli.Usagef("no trace files given"))
	}

	if *metricsMode {
		if err := metrics.CheckWindows(*windows); err != nil {
			cli.Fail("tistat", cli.Usage(err))
		}
		runMetrics(files, *windows, *jsonOut)
		return
	}

	perRank := make([][]trace.Action, len(files))
	var global trace.Stats
	for i, path := range files {
		actions, err := trace.ReadFile(path)
		if err != nil {
			cli.Fail("tistat", fmt.Errorf("reading %s: %w", path, err))
		}
		perRank[i] = actions
		st := trace.Collect(actions)
		fmt.Printf("%s: %s\n", path, st.String())
		for _, a := range actions {
			global.Observe(a)
		}
	}
	fmt.Printf("\ntotal: %s\n", global.String())
	fmt.Printf("volumes: %s computed, %s communicated\n",
		units.FormatFlops(global.Flops), units.FormatBytes(global.CommBytes))

	if *verify {
		errs := trace.Verify(perRank)
		if len(errs) == 0 {
			fmt.Println("consistency: OK")
			return
		}
		fmt.Printf("consistency: %d problem(s)\n", len(errs))
		for _, e := range errs {
			fmt.Println(" ", e)
		}
		os.Exit(cli.ExitFailure)
	}
}

// runMetrics reads each timed trace into its own columnar sink, merges
// them into one analysis, and prints the report.
func runMetrics(files []string, windows int, jsonOut bool) {
	sinks := make([]*replay.MetricsSink, 0, len(files))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			cli.Fail("tistat", err)
		}
		s := replay.NewMetricsSink()
		if _, err := replay.ReadTimedTrace(f, s); err != nil {
			f.Close()
			cli.Fail("tistat", fmt.Errorf("reading %s: %w", path, err))
		}
		f.Close()
		sinks = append(sinks, s)
	}
	rep := metrics.Analyze(sinks, metrics.Options{Windows: windows})
	if jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			cli.Fail("tistat", err)
		}
		return
	}
	rep.Render(os.Stdout)
}
