package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	tmetrics "tireplay/internal/metrics"
	"tireplay/internal/npb"
	"tireplay/internal/platform"
	"tireplay/internal/replay"
	"tireplay/internal/serve"
	"tireplay/internal/sweep"
	"tireplay/internal/synth"
	"tireplay/internal/trace"
)

// perLayer are the metrics of the traced run, one module each (the prefix
// names the module; replay includes simx, coll and eventq, which are only
// reachable through replay.Run). Every workload reports every one.
var perLayer = []metricDef{
	{"trace.load_s", "s"},
	{"trace.load_mb_per_s", "MB/s"},
	{"trace.decode_s", "s"},
	{"trace.decode_actions_per_s", "actions/s"},
	{"platform.build_s", "s"},
	{"platform.deploy_s", "s"},
	{"replay.run_s", "s"},
	{"replay.ns_per_action", "ns"},
	{"replay.alloc_bytes_per_action", "B"},
	{"metrics.tracer_s", "s"},
	{"metrics.sink_events", "count"},
	{"metrics.timed_mb", "MB"},
	{"metrics.analyze_s", "s"},
	{"sweep.engine_w1_s", "s"},
	{"sweep.engine_w2_s", "s"},
	{"sweep.overhead_s", "s"},
	{"sweep.reconcile_err", "ratio"},
	{"sweep.parallel_eff", "ratio"},
	{"sweep.fork_saving_s", "s"},
	{"sweep.forked_ratio", "ratio"},
	{"sweep.prefix_share", "ratio"},
	{"sweep.tracing_overhead_s", "s"},
	{"serve.handler_hit_us", "us"},
	{"serve.canonical_hit_us", "us"},
	{"serve.miss_overhead_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.goroutines_peak", "count"},
}

// reconcileGate is how far the decomposition may drift from the engine
// run it decomposes before the layer ledger is said to miss a layer.
const reconcileGate = 0.15

// tracedSet is the work one traced pass decomposes: one or more grids over
// one shared input, each with the untraced tisweep child that runs the same
// grid.
type tracedSet struct {
	runners []*sweepRunner
	// inline, when set, is the POST /traces body that registers the input
	// with the in-process server; otherwise a recorded input registers by
	// path.
	inline []byte
	// golden names the outputs pinned for the goldenSeed: "engine" for the
	// engine's rows, "serve" for the daemon's response bodies.
	golden string
}

func (s *sweepRunner) traced(ctx context.Context, t *tracer) error {
	return t.pass(ctx, tracedSet{runners: []*sweepRunner{s}, golden: "engine"})
}

func (s *serveRunner) traced(ctx context.Context, t *tracer) error {
	return t.pass(ctx, tracedSet{runners: s.perGrid, inline: s.upload, golden: "serve"})
}

// tracer accumulates the traced passes of one workload.
type tracer struct {
	e      *env
	name   string
	golden *golden
	rec    *recorder
	vals   map[string][]float64 // per-layer samples, one per pass
	// notes are measurements printed for the reader but not declared,
	// because not every workload has them.
	notes map[string][]float64
	// selfs and decompTotal accumulate the decomposition's self time per
	// span name, and its duration, over passes.
	selfs       map[string]int64
	decompTotal int64
	drainTotal  time.Duration
	tracerTotal time.Duration

	attempted, failed int
	problems          []string
}

func (t *tracer) put(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// check counts one comparison and records a failure when ok is false.
func (t *tracer) check(ok bool, n int, format string, args ...any) {
	t.attempted += n
	if !ok {
		t.failed += n
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// measureTraced runs traced passes until seconds have passed (at least one)
// and reports each per-layer metric as its median over passes.
func measureTraced(ctx context.Context, e *env, w *workload, seconds time.Duration, spansPath string, g *golden, out io.Writer) (*run, error) {
	rn, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	t := &tracer{e: e, name: w.name, golden: g, rec: newRecorder(),
		vals: map[string][]float64{}, notes: map[string][]float64{}, selfs: map[string]int64{}}
	rt := startRuntimeSampler()
	cals := []float64{calibrate().Seconds()}
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < seconds; passes++ {
		if err := rn.traced(ctx, t); err != nil {
			rt.stop()
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		cals = append(cals, calibrate().Seconds())
	}
	gcShare, heapPeak, goroutines := rt.stop()
	t.put("runtime.gc_cpu_share", gcShare)
	t.put("runtime.heap_peak_mb", heapPeak/1e6)
	t.put("runtime.goroutines_peak", goroutines)

	t.printLedger(out)
	if spansPath != "" {
		if err := t.rec.writeFile(spansPath); err != nil {
			return nil, err
		}
	}
	for _, d := range perLayer {
		if _, ok := t.vals[d.name]; !ok {
			return nil, fmt.Errorf("%s: no value for %s", w.name, d.name)
		}
	}
	r := &run{problems: t.problems}
	r.res.Attempted, r.res.Failed = t.attempted, t.failed
	r.res.Metrics = reportAtReference(out, w.name, perLayer, t.vals, cals)
	for _, k := range sortedKeys(t.notes) {
		fmt.Fprintf(out, "%s %-30s %14.6g (raw median of %d; not declared)\n", w.name, k, median(t.notes[k]), len(t.notes[k]))
	}
	if e := r.res.Metrics["sweep.reconcile_err"].Value; e > reconcileGate {
		fmt.Fprintf(out, "%s WARNING: layer self times miss the engine run by %.1f%%, above the %.0f%% gate\n",
			w.name, 100*e, 100*reconcileGate)
	}
	return r, nil
}

// pass runs one traced pass over set:
//
//	(a) the decomposition: every scenario at workers=1 through the layers'
//	    public calls, with a span around each call;
//	(b) the engine on the same grids: workers=1 fork off, workers=1 fork
//	    on, workers=2;
//	(c) an in-process server answering each grid once as a miss, then as
//	    byte-identical and respelled hits;
//
// plus standalone probes (draining the sources, toggling the tracers) and
// one untraced tisweep child per grid.
func (t *tracer) pass(ctx context.Context, set tracedSet) error {
	rec := t.rec
	pass := rec.begin("pass", 0)
	defer rec.end(pass)
	flags := set.runners[0].flags

	var in *inputs
	loadD, err := rec.do("trace.load", pass, func(int) error {
		var err error
		in, err = flags.load()
		return err
	})
	if err != nil {
		return err
	}
	defer in.close()
	if err := in.share(flags); err != nil {
		return err
	}
	t.put("trace.load_s", loadD.Seconds())
	t.put("trace.load_mb_per_s", float64(in.bytes)/1e6/loadD.Seconds())
	if flags.model != "" {
		// The one-off tigen fit step the model came from.
		perRank, err := npb.RecordAll("lu", "S", 16)
		if err != nil {
			return err
		}
		d, err := rec.do("synth.fit", pass, func(int) error {
			_, err := synth.Fit(perRank)
			return err
		})
		if err != nil {
			return err
		}
		t.notes["synth.fit_s"] = append(t.notes["synth.fit_s"], d.Seconds())
	}

	grids := make([]sweep.Grid, len(set.runners))
	for i, r := range set.runners {
		if grids[i], err = r.flags.grid(); err != nil {
			return err
		}
	}
	cfg := func(i, nworkers int, fork bool) *sweep.Config {
		return set.runners[i].flags.config(in, grids[i], nworkers, fork)
	}

	// (a) The decomposition, and the engine run it must reconcile with.
	decomp := rec.begin("decompose", pass)
	var dec []decomposed
	for i := range grids {
		d, err := t.decompose(decomp, in, cfg(i, 1, false), true)
		if err != nil {
			return err
		}
		dec = append(dec, d)
	}
	rec.end(decomp)
	for name, v := range selfByName(rec.spans, decomp) {
		t.selfs[name] += v
	}
	decompD := rec.get(decomp).dur()
	t.decompTotal += decompD

	// (b) The engine three ways: the run the decomposition reconciles
	// with (workers=1, fork off), then two workers with fork off and on
	// (tisweep's default). Fork is compared at two workers to keep the
	// traced run short: a 16k-rank scenario replays for seconds.
	var w1, w2, w2off time.Duration
	var forked, rows int
	var prefix, actions int64
	engineDigests := make([]map[string]string, len(grids))
	w2s := make([]time.Duration, len(grids))
	for i := range grids {
		resW1, d, err := t.engine(ctx, "sweep.engine_w1", pass, cfg(i, 1, false))
		if err != nil {
			return err
		}
		w1 += d
		t.check(sameRows(dec[i].rows, rowsOf(resW1)), len(dec[i].rows),
			"grid %d: decomposed rows differ from the engine's", i)
		if engineDigests[i], err = resultDigests(resW1, set.runners[i].flags); err != nil {
			return err
		}
		resOff, d, err := t.engine(ctx, "sweep.engine_w2_nofork", pass, cfg(i, workers, false))
		if err != nil {
			return err
		}
		w2off += d
		t.sameDigests(fmt.Sprintf("grid %d: workers=%d", i, workers), engineDigests[i], resOff, set.runners[i].flags)
		resOn, d, err := t.engine(ctx, "sweep.engine_w2", pass, cfg(i, workers, true))
		if err != nil {
			return err
		}
		w2 += d
		w2s[i] = d
		for _, sc := range resOn.Scenarios {
			rows++
			actions += sc.Actions
			prefix += sc.PrefixActions
			if sc.Forked {
				forked++
			}
		}
		t.sameDigests(fmt.Sprintf("grid %d: fork on", i), engineDigests[i], resOn, set.runners[i].flags)
	}
	t.put("sweep.engine_w1_s", w1.Seconds())
	t.put("sweep.engine_w2_s", w2.Seconds())
	t.put("sweep.overhead_s", w1.Seconds()-time.Duration(decompD).Seconds())
	t.put("sweep.reconcile_err", math.Abs(time.Duration(decompD).Seconds()-w1.Seconds())/w1.Seconds())
	t.put("sweep.parallel_eff", w1.Seconds()/(workers*w2off.Seconds()))
	t.put("sweep.fork_saving_s", (w2off - w2).Seconds())
	t.put("sweep.forked_ratio", float64(forked)/float64(rows))
	t.put("sweep.prefix_share", float64(prefix)/float64(actions))
	if set.golden == "engine" && t.e.seed == goldenSeed {
		t.checkGolden(engineDigests[0])
	}

	// Probes: drain every source once per scenario, and replay every
	// scenario again with the tracers toggled.
	probes := rec.begin("probes", pass)
	var drained int64
	var drainD time.Duration
	for i := range grids {
		n, d, err := t.drain(probes, in, cfg(i, 1, false))
		if err != nil {
			return err
		}
		drained += n
		drainD += d
	}
	t.drainTotal += drainD
	t.put("trace.decode_s", drainD.Seconds())
	t.put("trace.decode_actions_per_s", float64(drained)/drainD.Seconds())
	var plain, teed layerTotals
	for i := range grids {
		c := cfg(i, 1, false)
		toggled := *c
		toggled.Timed, toggled.Metrics = !c.Timed, !c.Metrics
		other, err := t.decompose(probes, in, &toggled, false)
		if err != nil {
			return err
		}
		if c.Timed || c.Metrics {
			plain.add(other.totals)
			teed.add(dec[i].totals)
		} else {
			plain.add(dec[i].totals)
			teed.add(other.totals)
		}
	}
	rec.end(probes)
	t.tracerTotal += teed.replay - plain.replay
	t.put("replay.run_s", plain.replay.Seconds())
	t.put("replay.ns_per_action", float64(plain.replay.Nanoseconds())/float64(plain.actions))
	t.put("replay.alloc_bytes_per_action", float64(plain.allocs)/float64(plain.actions))
	t.put("metrics.tracer_s", (teed.replay - plain.replay).Seconds())
	t.put("metrics.sink_events", float64(teed.events))
	t.put("metrics.timed_mb", float64(teed.timedBytes)/1e6)
	t.put("metrics.analyze_s", teed.analyze.Seconds())
	var build, deploy time.Duration
	for _, d := range dec {
		build += d.totals.build
		deploy += d.totals.deploy
	}
	t.put("platform.build_s", build.Seconds())
	t.put("platform.deploy_s", deploy.Seconds())

	// (c) The serve layer in-process.
	if err := t.serveProbe(pass, set, flags, grids, cfg, w2s); err != nil {
		return err
	}

	// The untraced children: tracing overhead, and a cross-check that the
	// real binary answers what the engine answered.
	var untraced time.Duration
	for i, r := range set.runners {
		x := r.rep(ctx)
		if x.err != nil {
			return fmt.Errorf("untraced tisweep: %w", x.err)
		}
		untraced += x.replayWall
		t.check(diffDigests(engineDigests[i], x.digests) == "", len(dec[i].rows),
			"grid %d: tisweep's outputs differ from the in-process engine's", i)
	}
	t.put("sweep.tracing_overhead_s", w2.Seconds()-untraced.Seconds())
	return nil
}

// layerTotals sums the decomposition's layer times over scenarios.
type layerTotals struct {
	build, deploy, replay, analyze      time.Duration
	actions, allocs, events, timedBytes int64
}

func (l *layerTotals) add(o layerTotals) {
	l.build += o.build
	l.deploy += o.deploy
	l.replay += o.replay
	l.analyze += o.analyze
	l.actions += o.actions
	l.allocs += o.allocs
	l.events += o.events
	l.timedBytes += o.timedBytes
}

type decomposed struct {
	rows   []rowKey
	totals layerTotals
}

// decompose replays every scenario of cfg at workers=1 through the public
// calls the engine makes, in the engine's order, with a span around each.
// With keepTimed the timed traces are buffered as the engine buffers them;
// otherwise they are only counted.
func (t *tracer) decompose(parent int, in *inputs, cfg *sweep.Config, keepTimed bool) (decomposed, error) {
	rec := t.rec
	var out decomposed
	scenarios := cfg.Grid.Expand()
	gens := map[int]*synth.Gen{}
	for _, sc := range scenarios {
		if sc.World > 0 && gens[sc.World] == nil {
			spec := cfg.SynthSpec
			spec.World = sc.World
			var g *synth.Gen
			if _, err := rec.do("synth.new_gen", parent, func(int) (err error) {
				g, err = synth.NewGen(cfg.Synth, spec)
				return err
			}); err != nil {
				return out, err
			}
			gens[sc.World] = g
		}
	}
	for _, sc := range scenarios {
		scID := rec.begin("scenario", parent)
		n := sc.World
		if n <= 0 {
			n = cfg.Traces.Ranks()
		}
		var depl *platform.Deployment
		d, err := rec.do("platform.deploy", scID, func(int) error {
			hosts, err := scenarioHosts(cfg, sc)
			if err != nil {
				return err
			}
			depl, err = platform.RoundRobin(hosts, n, max(sc.Fold, 1))
			return err
		})
		if err != nil {
			return out, err
		}
		out.totals.deploy += d
		var b *platform.Build
		d, err = rec.do("platform.build", scID, func(int) (err error) {
			b, err = scenarioBuild(cfg, sc)
			return err
		})
		if err != nil {
			return out, err
		}
		out.totals.build += d
		var sources []replay.Source
		openName := "trace.open"
		if sc.World > 0 {
			openName = "synth.rank"
		}
		if _, err = rec.do(openName, scID, func(int) (err error) {
			sources, err = openSources(in, gens[sc.World], n)
			return err
		}); err != nil {
			return out, err
		}

		rcfg := replay.Config{WorldSize: n, Collectives: sc.Coll, Faults: sc.Fault, Ckpt: sc.Ckpt}
		var tee replay.Tee
		var timed bytes.Buffer
		var counted countingWriter
		var tw *replay.TimedTraceWriter
		var sink *replay.MetricsSink
		if cfg.Timed {
			if keepTimed {
				tw = replay.NewTimedTraceWriter(&timed)
			} else {
				tw = replay.NewTimedTraceWriter(&counted)
			}
			tee = append(tee, tw)
		}
		if cfg.Metrics {
			sink = replay.NewMetricsSink()
			for _, p := range depl.Processes {
				sink.RankID(p.Function)
			}
			tee = append(tee, sink)
		}
		if len(tee) > 0 {
			rcfg.TimedTracer = tee
		}
		var res *replay.Result
		allocs := heapAllocs()
		d, err = rec.do("replay.run", scID, func(int) (err error) {
			res, err = replay.Run(b, depl, rcfg, sources)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("scenario %s: %w", sc.Name(), err)
		}
		out.totals.allocs += int64(heapAllocs() - allocs)
		out.totals.replay += d
		out.totals.actions += res.Actions
		if tw != nil {
			if _, err := rec.do("metrics.flush", scID, func(int) error { return tw.Flush() }); err != nil {
				return out, err
			}
			out.totals.timedBytes += int64(timed.Len()) + counted.n
		}
		var report *tmetrics.Report
		if sink != nil {
			out.totals.events += int64(sink.Len())
			opt := tmetrics.Options{Windows: cfg.MetricsWindows}
			if res.Resilience == nil {
				opt.Makespan = res.SimulatedTime
			}
			d, _ = rec.do("metrics.analyze", scID, func(int) error {
				report = tmetrics.Analyze([]*replay.MetricsSink{sink}, opt)
				return nil
			})
			out.totals.analyze += d
		}
		rec.end(scID)
		row, err := makeRow(sc.Name(), res.SimulatedTime, res.Actions, res.Resilience, report, timed.Bytes(), "", cfg.Timed)
		if err != nil {
			return out, err
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// scenarioHosts returns the hosts a scenario deploys onto, as the engine
// picks them: the topology's, or the first Hosts hosts of the base
// platform.
func scenarioHosts(cfg *sweep.Config, sc sweep.Scenario) ([]string, error) {
	if sc.Topo != nil {
		return sc.Topo.HostNames(), nil
	}
	hosts, err := cfg.Platform.Hosts()
	if err != nil {
		return nil, err
	}
	if sc.Hosts > 0 && sc.Hosts < len(hosts) {
		hosts = hosts[:sc.Hosts]
	}
	return hosts, nil
}

// scenarioBuild instantiates a scenario's scaled platform.
func scenarioBuild(cfg *sweep.Config, sc sweep.Scenario) (*platform.Build, error) {
	scale := platform.Scale{Latency: sc.LatencyScale, Bandwidth: sc.BandwidthScale, Power: sc.PowerScale}
	if sc.Topo != nil {
		return sc.Topo.Scaled(scale).Build()
	}
	scaled, err := cfg.Platform.Scaled(scale)
	if err != nil {
		return nil, err
	}
	return platform.Instantiate(scaled)
}

// openSources opens one action source per rank: a cursor over the recorded
// traces, or a streaming generator for a synthetic world.
func openSources(in *inputs, gen *synth.Gen, n int) ([]replay.Source, error) {
	sources := make([]replay.Source, n)
	for r := range sources {
		var err error
		if gen != nil {
			sources[r], err = gen.Rank(r)
		} else {
			sources[r], err = in.source(r)
		}
		if err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// drain pulls every action of every rank's source once per scenario.
func (t *tracer) drain(parent int, in *inputs, cfg *sweep.Config) (int64, time.Duration, error) {
	var total int64
	var spent time.Duration
	for _, sc := range cfg.Grid.Expand() {
		var gen *synth.Gen
		n := sc.World
		if n > 0 {
			spec := cfg.SynthSpec
			spec.World = n
			var err error
			if gen, err = synth.NewGen(cfg.Synth, spec); err != nil {
				return 0, 0, err
			}
		} else {
			n = cfg.Traces.Ranks()
		}
		d, err := t.rec.do("trace.decode", parent, func(int) error {
			sources, err := openSources(in, gen, n)
			if err != nil {
				return err
			}
			for _, src := range sources {
				for {
					_, ok, err := src.Next()
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					total++
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		spent += d
	}
	return total, spent, nil
}

// engine times one sweep.Engine run as a span.
func (t *tracer) engine(ctx context.Context, name string, parent int, cfg *sweep.Config) (*sweep.Result, time.Duration, error) {
	var res *sweep.Result
	d, err := t.rec.do(name, parent, func(int) error {
		e := sweep.NewEngine(cfg.Workers)
		defer e.Close()
		var err error
		res, err = e.Run(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	for _, sc := range res.Scenarios {
		if sc.Err != "" {
			return nil, 0, fmt.Errorf("%s: scenario %s: %s", name, sc.Name, sc.Err)
		}
	}
	return res, d, nil
}

// sameDigests checks that res answers what the reference digests describe.
func (t *tracer) sameDigests(what string, want map[string]string, res *sweep.Result, f sweepFlags) {
	got, err := resultDigests(res, f)
	diff := ""
	if err != nil {
		diff = err.Error()
	} else {
		diff = diffDigests(want, got)
	}
	t.check(diff == "", len(res.Scenarios), "%s: outputs differ: %s", what, diff)
}

func (t *tracer) checkGolden(got map[string]string) {
	prefix := t.e.size.name + "/" + t.name + "/"
	bad := t.golden.check(prefix, got)
	t.check(len(bad) == 0, 1, "outputs differ from golden.json: %s", strings.Join(bad, ", "))
}

// resultDigests names an engine result's outputs exactly as the measured
// tisweep child's files are named: the rows of its -json report, its
// -metrics-json view and its timed traces.
func resultDigests(res *sweep.Result, f sweepFlags) (map[string]string, error) {
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		return nil, err
	}
	d := map[string]string{}
	var err error
	if d["rows"], err = rowsDigest(b.Bytes()); err != nil {
		return nil, err
	}
	if f.metrics {
		b.Reset()
		if err := res.WriteMetricsJSON(&b); err != nil {
			return nil, err
		}
		d["metrics"] = bytesDigest(b.Bytes())
	}
	if f.timed {
		timed := make([][]byte, len(res.Scenarios))
		for i := range res.Scenarios {
			timed[i] = res.Scenarios[i].TimedTrace
		}
		d["timed"] = trace.DigestRanks(timed)
	}
	return d, nil
}

// rowKey is everything a row says about its scenario, compared bit for bit.
type rowKey struct {
	name                    string
	simBits                 uint64
	actions                 int64
	resilience, report, err string
	timed                   string
}

func makeRow(name string, sim float64, actions int64, res *replay.Resilience, report *tmetrics.Report, timed []byte, errText string, withTimed bool) (rowKey, error) {
	k := rowKey{name: name, simBits: math.Float64bits(sim), actions: actions, err: errText}
	if res != nil {
		b, err := json.Marshal(res)
		if err != nil {
			return k, err
		}
		k.resilience = string(b)
	}
	if report != nil {
		b, err := json.Marshal(report)
		if err != nil {
			return k, err
		}
		k.report = string(b)
	}
	if withTimed {
		k.timed = bytesDigest(timed)
	}
	return k, nil
}

func rowsOf(res *sweep.Result) []rowKey {
	out := make([]rowKey, len(res.Scenarios))
	for i, sc := range res.Scenarios {
		// The marshalled fields cannot fail: they are plain numbers.
		out[i], _ = makeRow(sc.Name, sc.SimulatedTime, sc.Actions, sc.Resilience, sc.Metrics,
			sc.TimedTrace, sc.Err, sc.TimedTrace != nil)
	}
	return out
}

func sameRows(a, b []rowKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serveProbe drives an in-process server over each grid: one miss, then
// byte-identical repeats (body-hash hits) and respelled repeats
// (canonical-key hits, each spelling new to the cache). w2s are the
// grids' engine runs at two workers with fork on, the run a miss wraps.
func (t *tracer) serveProbe(parent int, set tracedSet, flags sweepFlags, grids []sweep.Grid, cfg func(int, int, bool) *sweep.Config, w2s []time.Duration) error {
	const bodyHits, canonicalHits = 20, 10
	rec := t.rec
	srv := serve.New(serve.Config{Workers: workers, MaxConcurrent: 2, MaxQueue: 8, AllowPaths: true})
	defer srv.Close()
	h := srv.Handler()

	digest := ""
	if flags.dir != "" {
		upload := set.inline
		if upload == nil {
			var err error
			if upload, err = json.Marshal(map[string]any{"path": flags.dir, "ranks": flags.ranks}); err != nil {
				return err
			}
		}
		rr, _ := serveOnce(h, "/traces", upload)
		var up struct {
			Digest string `json:"digest"`
		}
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &up) != nil {
			return fmt.Errorf("in-process upload: status %d: %s", rr.Code, rr.Body.Bytes())
		}
		digest = up.Digest
	}

	var hitUS, canonUS []float64
	var overhead time.Duration
	missBodies := make([][]byte, len(grids))
	for i, r := range set.runners {
		body, err := r.flags.request(digest)
		if err != nil {
			return err
		}
		// The server builds tisweep's configuration without timed traces,
		// which responses do not carry; time the engine on it when that
		// differs from the run already timed.
		ref := w2s[i]
		if r.flags.timed {
			c := cfg(i, workers, true)
			c.Timed = false
			var err error
			if _, ref, err = t.engine(context.Background(), "serve.reference", parent, c); err != nil {
				return err
			}
		}
		var miss *httptest.ResponseRecorder
		var d time.Duration
		if _, err := rec.do("serve.miss", parent, func(int) error {
			miss, d = serveOnce(h, "/sweeps", body)
			return nil
		}); err != nil {
			return err
		}
		overhead += d - ref
		missBodies[i] = miss.Body.Bytes()
		t.check(miss.Code == http.StatusOK && miss.Header().Get("X-Cache") == "miss", 1,
			"grid %d: in-process miss: status %d X-Cache %q", i, miss.Code, miss.Header().Get("X-Cache"))
		hitsID := rec.begin("serve.hits", parent)
		for k := 0; k < bodyHits+canonicalHits; k++ {
			b := body
			if k >= bodyHits {
				// Leading blanks respell the body without changing its
				// meaning: a new body hash, the same canonical key.
				b = append(bytes.Repeat([]byte(" "), k-bodyHits+1), body...)
			}
			rr, d := serveOnce(h, "/sweeps", b)
			t.check(rr.Code == http.StatusOK && rr.Header().Get("X-Cache") == "hit" &&
				bytes.Equal(rr.Body.Bytes(), missBodies[i]), 1,
				"grid %d: in-process hit %d: status %d X-Cache %q or body differs from the miss",
				i, k, rr.Code, rr.Header().Get("X-Cache"))
			us := float64(d) / float64(time.Microsecond)
			if k < bodyHits {
				hitUS = append(hitUS, us)
			} else {
				canonUS = append(canonUS, us)
			}
		}
		rec.end(hitsID)
	}
	t.put("serve.handler_hit_us", median(hitUS))
	t.put("serve.canonical_hit_us", median(canonUS))
	t.put("serve.miss_overhead_ms", float64(overhead)/float64(time.Millisecond)/float64(len(grids)))
	if set.golden == "serve" && t.e.seed == goldenSeed {
		t.checkGolden(map[string]string{"bodies": trace.DigestRanks(missBodies)})
	}
	return nil
}

// serveOnce sends one POST through the handler without a socket.
func serveOnce(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rr, req)
	return rr, time.Since(start)
}

// request renders the POST /sweeps body asking the daemon the question
// tisweep answers for these flags.
func (f sweepFlags) request(digest string) ([]byte, error) {
	req := serve.SweepRequest{Trace: digest, Metrics: f.metrics, Grid: serve.GridSpec{
		Lat: f.lat, Bw: f.bw, Coll: f.coll, Ckpt: f.ckpt, Topo: f.topo, World: f.world}}
	if f.model != "" {
		model, err := os.ReadFile(f.model)
		if err != nil {
			return nil, err
		}
		req.Synth = &serve.SynthSpec{Model: model, Scale: f.law, Seed: f.seed, Jitter: f.jit}
	}
	return json.Marshal(req)
}

// printLedger prints where one second of the decomposed replay goes: each
// span name's self time as a share of the decomposition.
func (t *tracer) printLedger(out io.Writer) {
	fmt.Fprintf(out, "%s where one second of replay goes (decomposition at workers=1, fork off; self time per second):\n", t.name)
	names := sortedKeys(t.selfs)
	sort.SliceStable(names, func(i, j int) bool { return t.selfs[names[i]] > t.selfs[names[j]] })
	total := float64(t.decompTotal)
	for _, n := range names {
		fmt.Fprintf(out, "%s   %-18s %.4f s\n", t.name, n, float64(t.selfs[n])/total)
	}
	fmt.Fprintf(out, "%s   replay.run includes trace decode ~%.4f s (drained standalone) and tracers ~%.4f s (toggled)\n",
		t.name, float64(t.drainTotal)/total, float64(t.tracerTotal)/total)
	layers := map[string]int64{}
	for _, n := range names {
		layers[span{Name: n}.layer()] += t.selfs[n]
	}
	fmt.Fprintf(out, "%s   by layer:", t.name)
	for _, l := range sortedKeys(layers) {
		fmt.Fprintf(out, " %s %.4f", l, float64(layers[l])/total)
	}
	fmt.Fprintln(out)
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// heapAllocs returns the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeSampler watches the traced process: its peak heap and goroutine
// count, and the share of its CPU time spent in garbage collection.
type runtimeSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup

	heapPeak, goroutinesPeak uint64 // written by the sampler goroutine only
	gc0, total0              float64
}

var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{quit: make(chan struct{})}
	s := readRuntime()
	r.gc0, r.total0 = s[2].Value.Float64(), s[3].Value.Float64()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s := readRuntime()
			r.heapPeak = max(r.heapPeak, s[0].Value.Uint64())
			r.goroutinesPeak = max(r.goroutinesPeak, s[1].Value.Uint64())
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the GC share of CPU time, the peak heap
// bytes and the peak goroutine count.
func (r *runtimeSampler) stop() (gcShare, heapPeak, goroutines float64) {
	close(r.quit)
	r.wg.Wait()
	s := readRuntime()
	gc := s[2].Value.Float64() - r.gc0
	total := s[3].Value.Float64() - r.total0
	return gc / total, float64(r.heapPeak), float64(r.goroutinesPeak)
}
