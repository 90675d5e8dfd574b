package replay

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tireplay/internal/coll"
	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// peakTracer observes a replay from its tracer callbacks: the peak
// goroutine count over every completed activity, and the runtime's stack
// memory once, at completion number mid. It forwards to next when set.
type peakTracer struct {
	next       *TimedTraceWriter
	n, mid     int
	peak       int
	stackInuse uint64
}

func (t *peakTracer) observe() {
	if g := runtime.NumGoroutine(); g > t.peak {
		t.peak = g
	}
	t.n++
	if t.n == t.mid {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.stackInuse = ms.StackInuse
	}
}

func (t *peakTracer) Compute(proc, host string, flops, start, end float64) {
	t.observe()
	if t.next != nil {
		t.next.Compute(proc, host, flops, start, end)
	}
}

func (t *peakTracer) Comm(src, dst string, bytes, start, end float64) {
	t.observe()
	if t.next != nil {
		t.next.Comm(src, dst, bytes, start, end)
	}
}

// TestStacklessRanksNoGoroutinePerRank: with the default registry a rank
// is a state machine the kernel steps on the goroutine that called Run, so
// a 1024-rank world replays without a goroutine or a stack per rank. A
// coroutine per rank would add 1024 goroutines and ~4 KB of stack each.
func TestStacklessRanksNoGoroutinePerRank(t *testing.T) {
	const world = 1024
	g := largeWorldGen(t, world)
	inputs := func() (*platform.Build, *platform.Deployment, []Source) {
		topo, err := platform.ParseTopo("dragonfly:8x16x8")
		if err != nil {
			t.Fatal(err)
		}
		bld, err := topo.Build()
		if err != nil {
			t.Fatal(err)
		}
		depl, err := platform.RoundRobin(bld.HostNames, world, 1)
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]Source, world)
		for r := range sources {
			rg, err := g.Rank(r)
			if err != nil {
				t.Fatal(err)
			}
			sources[r] = rankGenSource{rg}
		}
		return bld, depl, sources
	}
	// A first replay counts the completions, so the second can read the
	// stack memory halfway through.
	count := &peakTracer{}
	bld, depl, sources := inputs()
	if _, err := Run(bld, depl, Config{TimedTracer: count}, sources); err != nil {
		t.Fatal(err)
	}
	tr := &peakTracer{mid: count.n / 2}
	bld, depl, sources = inputs()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	res, err := Run(bld, depl, Config{TimedTracer: tr}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if tr.n != count.n || tr.stackInuse == 0 {
		t.Fatalf("replays completed %d and %d activities, stack read %d B", count.n, tr.n, tr.stackInuse)
	}
	if tr.peak > goroutines+2 {
		t.Errorf("%d ranks peaked at %d goroutines, %d before Run: a goroutine per rank",
			world, tr.peak, goroutines)
	}
	if grew := int64(tr.stackInuse) - int64(before.StackInuse); grew >= 1<<20 {
		t.Errorf("%d ranks grew stack memory by %d B mid-replay (%d actions)", world, grew, res.Actions)
	}
}

// blockingRegistry binds every built-in action through Register, with the
// Handler Lookup returns for it, so its ranks run as coroutines that drive
// the built-in steps through Suspend.
func blockingRegistry(t *testing.T) *Registry {
	t.Helper()
	def, reg := Default(), NewRegistry()
	for _, kw := range def.Keywords() {
		typ, ok := trace.TypeFromName(kw)
		if !ok {
			t.Fatalf("default keyword %q names no action type", kw)
		}
		h, err := def.Lookup(typ)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(kw, h)
	}
	if reg.stackless() {
		t.Fatal("a registry of registered handlers runs its ranks stackless")
	}
	return reg
}

// driverRun replays perRank on 8 bordereau hosts under reg and cc and
// returns the simulated time, the timed trace and the peak goroutine count
// the run added.
func driverRun(t *testing.T, reg *Registry, cc coll.Config, perRank [][]trace.Action) (float64, []byte, int) {
	t.Helper()
	b, d := paperSetup(t, len(perRank))
	var buf bytes.Buffer
	tr := &peakTracer{next: NewTimedTraceWriter(&buf)}
	goroutines := runtime.NumGoroutine()
	res, err := RunActions(b, d, Config{Model: smpi.Default(), Registry: reg, TimedTracer: tr, Collectives: cc}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.next.Flush(); err != nil {
		t.Fatal(err)
	}
	return res.SimulatedTime, buf.Bytes(), tr.peak - goroutines
}

// TestBuiltinDriversAgree: the built-in actions are written once, as steps.
// Driven by the kernel (stackless ranks, Default) or from the rank's
// coroutine (the Handlers Lookup returns, re-registered), they give the
// same makespan bits and the same timed-trace bytes on the golden corpus's
// NPB fixtures under every collective family.
func TestBuiltinDriversAgree(t *testing.T) {
	blocking := blockingRegistry(t)
	for _, app := range []string{"LU", "CG"} {
		perRank := npbTraces(t, app, 8)
		for _, spec := range []string{"linear", "binomial", "allReduce=ring"} {
			cc := coll.MustParseSpec(spec)
			ms, timed, extra := driverRun(t, Default(), cc, perRank)
			bms, btimed, bextra := driverRun(t, blocking, cc, perRank)
			name := app + "/" + spec
			if math.Float64bits(ms) != math.Float64bits(bms) {
				t.Errorf("%s: stackless makespan %v, blocking %v", name, ms, bms)
			}
			if len(timed) == 0 || !bytes.Equal(timed, btimed) {
				t.Errorf("%s: timed traces differ (%d vs %d bytes)", name, len(timed), len(btimed))
			}
			if extra > 2 || bextra < len(perRank) {
				t.Errorf("%s: stackless run added %d goroutines, blocking run %d; want none and one per rank",
					name, extra, bextra)
			}
		}
	}
}

// refMonolithicCG8 is CG class S on 8 bordereau hosts with allReduce
// replaced by the analytic handler below, as the coroutine-only replay gave
// it.
var refMonolithicCG8 = refOutput{0x3fd17df0fcb71a9a, "492fc03928864ba633c1c6d3a9a324de97a64c0c900e6292a5a888d1729de7e9"}

// TestHandlerBlockingTwice: a registered handler may block more than once
// per action — here the monolithic allReduce model of the collectives
// ablation, a sleep then the reduction work — and replays to the outputs
// the coroutine-only replay gave.
func TestHandlerBlockingTwice(t *testing.T) {
	requirePinnedArch(t)
	reg := Default()
	reg.Register("allReduce", func(p *Proc, a trace.Action) error {
		p.Sim.Sleep(3 * 16.67e-6 * 3)
		if a.Volume2 > 0 {
			p.Sim.Execute(a.Volume2)
		}
		return nil
	})
	ms, timed, extra := driverRun(t, reg, coll.Config{}, npbTraces(t, "CG", 8))
	if extra < 8 {
		t.Errorf("registered handler ran on %d added goroutines, want one per rank", extra)
	}
	checkReference(t, "monolithic allReduce", ms, timed, refMonolithicCG8)
}

// TestReplayFilesGzipMatchesText: gzip-compressed rank files replay from
// their binary images to the bits their text twins give, and a corrupt
// record inside a .gz file fails the replay with an error naming the file.
func TestReplayFilesGzipMatchesText(t *testing.T) {
	const n = 8
	perRank := npbTraces(t, "LU", n)
	dir := t.TempDir()
	replayExt := func(ext string) *Result {
		t.Helper()
		paths := make([]string, n)
		for r, actions := range perRank {
			paths[r] = filepath.Join(dir, fmt.Sprintf("p%d%s", r, ext))
			if err := trace.WriteFile(paths[r], actions); err != nil {
				t.Fatal(err)
			}
		}
		b, d := paperSetup(t, n)
		d2, err := d.WithTraceArgs(paths)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFiles(b, d2, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	text, gz := replayExt(".trace"), replayExt(".trace.gz")
	if math.Float64bits(text.SimulatedTime) != math.Float64bits(gz.SimulatedTime) || text.Actions != gz.Actions {
		t.Fatalf("gzip ranks: %v (%d actions), text ranks: %v (%d actions)",
			gz.SimulatedTime, gz.Actions, text.SimulatedTime, text.Actions)
	}

	// Rank 3's file becomes gzip-compressed binary records whose 11th has
	// type byte 127.
	var tib bytes.Buffer
	if err := trace.EncodeBinary(&tib, perRank[3][:10]); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(append(tib.Bytes(), 0x7f)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "p3.trace.gz")
	if err := os.WriteFile(bad, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	for r := range paths {
		paths[r] = filepath.Join(dir, fmt.Sprintf("p%d.trace.gz", r))
	}
	b, d := paperSetup(t, n)
	d2, err := d.WithTraceArgs(paths)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFiles(b, d2, Config{}); err == nil || !strings.Contains(err.Error(), bad+": record 11: ") {
		t.Fatalf("corrupt gzip rank: err = %v, want it to name %s and record 11", err, bad)
	}
}
