package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// metricDef declares one printed metric. BENCHMARK.json declares the same
// names and units; the package test holds the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of tisweep or tiserved sees, measured on
// the real binaries with tracing off. Every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_wall_s", "s"},
	{"replay_actions_per_s", "actions/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome of a workload run, before it is printed.
type run struct {
	res      result
	problems []string
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// measureE2E runs a workload's set-up probes, then measured repetitions
// until seconds have passed (at least one), checks every repetition's
// outputs against the first and against the golden digests, and reports
// each end-to-end metric as the median over repetitions.
func measureE2E(ctx context.Context, e *env, w *workload, seconds time.Duration, g *golden, update bool, out io.Writer) (*run, error) {
	rn, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < e.size.probes; i++ {
		s, err := rn.probe(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s set-up probe: %w", w.name, err)
		}
		setups = append(setups, s.Seconds())
	}

	r := &run{}
	var reps []rep
	cals := []float64{calibrate().Seconds()}
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < seconds {
		if ctx.Err() != nil {
			r.problem("stopped after %d repetitions: %v", len(reps), ctx.Err())
			break
		}
		x := rn.rep(ctx)
		reps = append(reps, x)
		cals = append(cals, calibrate().Seconds())
		fmt.Fprintf(out, "%s rep %d: setup %.4fs wall %.3fs cpu %.3fs rss %.1fMB actions %d failed %d/%d calibration %.4fs\n",
			w.name, len(reps), x.setup.Seconds(), x.wall.Seconds(), x.cpu.Seconds(),
			float64(x.maxRSS)/1e6, x.actions, x.failed, x.attempted, cals[len(cals)-1])
		if x.err != nil {
			r.problem("rep %d: %v", len(reps), x.err)
		}
	}

	var wall, rate, cpu, rss []float64
	var missMS, hitUS []float64
	notes := map[string][]float64{}
	var first map[string]string
	for i, x := range reps {
		r.res.Attempted += x.attempted
		r.res.Failed += x.failed
		if x.err != nil {
			continue
		}
		if first == nil {
			first = x.digests
		} else if d := diffDigests(first, x.digests); d != "" {
			r.problem("rep %d outputs differ from rep 1: %s", i+1, d)
			r.res.Failed += x.attempted - x.failed
		}
		setups = append(setups, x.setup.Seconds())
		wall = append(wall, x.wall.Seconds())
		rate = append(rate, float64(x.actions)/x.replayWall.Seconds())
		cpu = append(cpu, x.cpu.Seconds())
		rss = append(rss, float64(x.maxRSS)/1e6)
		missMS = append(missMS, x.missMS...)
		hitUS = append(hitUS, x.hitUS...)
		for k, v := range x.notes {
			notes[k] = append(notes[k], v)
		}
	}
	if first == nil {
		return r, nil
	}

	prefix := e.size.name + "/" + w.name + "/"
	switch {
	case update:
		if e.seed != goldenSeed {
			return nil, fmt.Errorf("-update needs -seed %d", goldenSeed)
		}
		g.set(prefix, first)
	case e.seed == goldenSeed:
		if bad := g.check(prefix, first); len(bad) > 0 {
			r.problem("outputs differ from golden.json: %s", strings.Join(bad, ", "))
			r.res.Failed = r.res.Attempted
		}
	}
	for _, k := range sortedKeys(first) {
		fmt.Fprintf(out, "%s output %s %s\n", w.name, k, first[k])
	}
	for _, k := range sortedKeys(notes) {
		fmt.Fprintf(out, "%s %s %.4g (median of %d)\n", w.name, k, median(notes[k]), len(notes[k]))
	}
	printLatency(out, w.name, "miss_ms", missMS)
	printLatency(out, w.name, "hit_us", hitUS)
	if len(missMS)+len(hitUS) > 0 {
		var total float64
		for _, x := range reps {
			total += float64(len(x.missMS)+len(x.hitUS)) / x.wall.Seconds()
		}
		fmt.Fprintf(out, "%s requests_per_s %.1f (mean of %d)\n", w.name, total/float64(len(reps)), len(reps))
	}

	samples := map[string][]float64{"setup_s": setups, "sweep_wall_s": wall,
		"replay_actions_per_s": rate, "cpu_s": cpu, "peak_rss_mb": rss}
	r.res.Metrics = reportAtReference(out, w.name, endToEnd, samples, cals)
	return r, nil
}

// reportAtReference prints each metric's raw median and returns the
// medians scaled to the reference speed by the run's calibrations.
func reportAtReference(out io.Writer, wl string, defs []metricDef, samples map[string][]float64, cals []float64) map[string]metric {
	cal := median(cals)
	fmt.Fprintf(out, "%s calibration %.4f s (median of %d; reference %.2f s)\n", wl, cal, len(cals), referenceCalibration)
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		raw := median(samples[d.name])
		m[d.name] = metric{atReference(raw, d.unit, cal), d.unit}
		fmt.Fprintf(out, "%s %-30s %14.6g %-9s at reference speed (raw %.6g)\n", wl, d.name, m[d.name].Value, d.unit, raw)
	}
	return m
}

// printLatency prints a latency distribution as its median and the highest
// percentile with at least ten samples beyond it.
func printLatency(out io.Writer, wl, name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	p, v, n, ok := tail(xs)
	switch {
	case !ok:
		fmt.Fprintf(out, "%s %s p50 %.4g (n=%d, too few samples for a tail)\n", wl, name, percentile(xs, 50), n)
	case p == 50:
		fmt.Fprintf(out, "%s %s p50 %.4g (n=%d, too few samples beyond p90)\n", wl, name, v, n)
	default:
		fmt.Fprintf(out, "%s %s p50 %.4g p%g %.4g (n=%d)\n", wl, name, percentile(xs, 50), p, v, n)
	}
}

func diffDigests(a, b map[string]string) string {
	var bad []string
	for _, k := range sortedKeys(a) {
		if a[k] != b[k] {
			bad = append(bad, k)
		}
	}
	if len(a) != len(b) {
		bad = append(bad, "output set")
	}
	return strings.Join(bad, ", ")
}
