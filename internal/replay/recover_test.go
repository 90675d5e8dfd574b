package replay

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

func TestParseCkpt(t *testing.T) {
	for _, in := range []string{"", "none", "NONE"} {
		c, err := ParseCkpt(in)
		if err != nil || c != nil {
			t.Fatalf("ParseCkpt(%q) = %v, %v, want nil, nil", in, c, err)
		}
	}
	c, err := ParseCkpt("60/5/10/30")
	if err != nil {
		t.Fatal(err)
	}
	if *c != (Ckpt{Interval: 60, Cost: 5, Restart: 10, Down: 30}) {
		t.Fatalf("parsed %+v", c)
	}
	if c.String() != "60/5/10/30" {
		t.Fatalf("String() = %q", c.String())
	}
	short, err := ParseCkpt("60")
	if err != nil || *short != (Ckpt{Interval: 60}) {
		t.Fatalf("ParseCkpt(60) = %+v, %v", short, err)
	}
	for _, bad := range []string{"0", "-5", "60/-1", "a/b", "1/2/3/4/5", "inf", "NaN/1"} {
		if c, err := ParseCkpt(bad); err == nil {
			t.Errorf("ParseCkpt(%q) = %+v, want error", bad, c)
		}
	}
	if (*Ckpt)(nil).String() != "none" {
		t.Fatal("nil protocol renders as none")
	}
}

func TestDalyInterval(t *testing.T) {
	// sqrt(2 * 5 * 1000) ≈ 100
	if got := DalyInterval(5, 1000); math.Abs(got-100) > 1e-9 {
		t.Fatalf("DalyInterval(5, 1000) = %g, want 100", got)
	}
}

// arrivalsOf builds a failure stream from explicit instants.
func arrivalsOf(t *testing.T, times ...float64) *platform.Arrivals {
	t.Helper()
	if len(times) == 0 {
		s, err := platform.ParseFaultSpec("none")
		if err != nil {
			t.Fatal(err)
		}
		return s.Arrivals()
	}
	clauses := make([]string, len(times))
	for i, at := range times {
		clauses[i] = fmt.Sprintf("host:0@%g", at)
	}
	s, err := platform.ParseFaultSpec(strings.Join(clauses, ","))
	if err != nil {
		t.Fatal(err)
	}
	return s.Arrivals()
}

func TestApplyCkptNoFailures(t *testing.T) {
	// M=100, interval 30, cost 5: checkpoints after 30, 60, 90 progress
	// (none at completion) -> effective 100 + 3*5 = 115.
	r, err := applyCkpt(100, &Ckpt{Interval: 30, Cost: 5}, arrivalsOf(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 3 || r.CkptTime != 15 || r.Effective != 115 {
		t.Fatalf("got %+v, want 3 ckpts, 15 s, effective 115", r)
	}
	if r.Failures != 0 || r.Wasted != 0 || r.Recomputed != 0 || r.Downtime != 0 {
		t.Fatalf("failure-free run has waste: %+v", r)
	}
}

func TestApplyCkptSingleMidWorkFailure(t *testing.T) {
	// M=100, interval 30, cost 5, restart 10, down 20. Wall timeline:
	// work 30 (wall 30), ckpt (wall 35, cp=30), failure at wall 50: 15 s of
	// progress lost, recovery to wall 80, rework.
	r, err := applyCkpt(100, &Ckpt{Interval: 30, Cost: 5, Restart: 10, Down: 20}, arrivalsOf(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 1 {
		t.Fatalf("failures = %d, want 1", r.Failures)
	}
	if r.Wasted != 15 || r.Recomputed != 15 {
		t.Fatalf("wasted/recomputed = %g/%g, want 15/15", r.Wasted, r.Recomputed)
	}
	if r.Downtime != 30 {
		t.Fatalf("downtime = %g, want 30", r.Downtime)
	}
	// Identity: effective = fault-free + ckpt + wasted + downtime.
	want := 100.0 + r.CkptTime + r.Wasted + r.Downtime
	if math.Abs(r.Effective-want) > 1e-9 {
		t.Fatalf("effective %g violates the waste identity (want %g)", r.Effective, want)
	}
}

func TestApplyCkptFailureDuringWrite(t *testing.T) {
	// M=100, interval 30, cost 5. First write spans wall [30, 35); a
	// failure at 32 discards the partial write (2 s) plus all 30 s of
	// progress: Wasted=32, Recomputed=30.
	r, err := applyCkpt(100, &Ckpt{Interval: 30, Cost: 5}, arrivalsOf(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 1 || r.Wasted != 32 || r.Recomputed != 30 {
		t.Fatalf("got failures=%d wasted=%g recomputed=%g, want 1/32/30", r.Failures, r.Wasted, r.Recomputed)
	}
	if r.Wasted-r.Recomputed != 2 {
		t.Fatalf("partial-write loss = %g, want 2", r.Wasted-r.Recomputed)
	}
}

func TestApplyCkptAbsorbsRecoveryWindowFailures(t *testing.T) {
	// Failures at 50, 55, 60 with down+restart = 30: the ones at 55 and 60
	// land inside the first recovery window [50, 80) and are absorbed.
	r, err := applyCkpt(100, &Ckpt{Interval: 30, Cost: 5, Restart: 10, Down: 20},
		arrivalsOf(t, 50, 55, 60))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 1 {
		t.Fatalf("failures = %d, want 1 (recovery-window arrivals absorbed)", r.Failures)
	}
}

func TestApplyCkptIdentityHoldsUnderManyFailures(t *testing.T) {
	times := []float64{7, 33, 34, 61, 100, 140, 141, 200, 260, 400}
	r, err := applyCkpt(300, &Ckpt{Interval: 25, Cost: 3, Restart: 4, Down: 6}, arrivalsOf(t, times...))
	if err != nil {
		t.Fatal(err)
	}
	want := r.FaultFree + r.CkptTime + r.Wasted + r.Downtime
	if math.Abs(r.Effective-want) > 1e-6 {
		t.Fatalf("identity violated: effective %g != %g", r.Effective, want)
	}
	if r.Recomputed > r.Wasted {
		t.Fatalf("recomputed %g exceeds wasted %g", r.Recomputed, r.Wasted)
	}
	if r.Effective < r.FaultFree {
		t.Fatalf("effective %g below fault-free %g", r.Effective, r.FaultFree)
	}
}

func TestApplyCkptEffectiveMonotoneInFailures(t *testing.T) {
	// Property: adding failures never shrinks the effective makespan. Build
	// nested failure sets from a deterministic stream and check.
	ck := &Ckpt{Interval: 20, Cost: 2, Restart: 3, Down: 5}
	var times []float64
	next := 11.0
	prevEff := 0.0
	for i := 0; i < 12; i++ {
		r, err := applyCkpt(200, ck, arrivalsOf(t, times...))
		if err != nil {
			t.Fatal(err)
		}
		if r.Effective < prevEff {
			t.Fatalf("effective makespan shrank from %g to %g when adding failure #%d",
				prevEff, r.Effective, i)
		}
		prevEff = r.Effective
		times = append(times, next)
		next = next*1.31 + 7 // spread strikes across the (growing) run
	}
}

func TestApplyCkptDivergenceDetected(t *testing.T) {
	// Interval 10 with a failure every 1 s of wall time and zero-cost
	// recovery: progress can never reach a checkpoint, the walker must
	// give up instead of looping forever.
	times := make([]float64, 0, maxCkptFailures+8)
	// A huge explicit list would be absurd; use mtbf with a tiny mean so
	// the stream itself generates the storm.
	s, err := platform.ParseFaultSpec("mtbf:0.5")
	if err != nil {
		t.Fatal(err)
	}
	_ = times
	_, err = applyCkpt(1000, &Ckpt{Interval: 100, Cost: 1}, s.Arrivals())
	if err == nil {
		t.Fatal("expected a convergence error")
	}
	if !strings.Contains(err.Error(), "does not converge") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// faultSetup builds a 4-host Bordereau-style run of the figure 1 ring trace.
func faultSetup(t *testing.T) (*platform.Build, *platform.Deployment, [][]trace.Action) {
	t.Helper()
	b, d := paperSetup(t, 4)
	return b, d, perRankActions(t, figure1Trace, 4)
}

func TestReplayAbortOnHostFault(t *testing.T) {
	b, d, perRank := faultSetup(t)
	faults, err := platform.ParseFaultSpec("host:1@0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunActions(b, d, Config{Model: smpi.Identity(), Faults: faults}, perRank)
	if res != nil || err == nil {
		t.Fatalf("faulted run returned (%v, %v), want (nil, *FailedRanksError)", res, err)
	}
	var fre *FailedRanksError
	if !errors.As(err, &fre) {
		t.Fatalf("error type %T: %v", err, err)
	}
	// Rank 1 dies outright; rank 0's send then matches the dead receive and
	// aborts too. Ranks 2 and 3 merely block forever on the dead part of
	// the ring — the (swallowed) deadlock, not a recorded failure.
	if len(fre.Ranks) != 2 {
		t.Fatalf("lost %d ranks, want 2 (rank 1 + cascaded rank 0): %v", len(fre.Ranks), fre)
	}
	for i, rf := range fre.Ranks {
		if rf.Rank != i {
			t.Fatalf("ranks not sorted: %+v", fre.Ranks)
		}
		if !strings.Contains(rf.Cause, "host bordereau-1") {
			t.Fatalf("cause %q does not name the failed resource", rf.Cause)
		}
	}
	if fre.Ranks[0].Actions != 1 || fre.Ranks[1].Actions != 0 {
		t.Fatalf("lost-work accounting wrong: %+v", fre.Ranks)
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("error message lacks diagnosis: %v", err)
	}
}

func TestReplayAbortDeterministic(t *testing.T) {
	run := func() string {
		b, d, perRank := faultSetup(t)
		faults, err := platform.ParseFaultSpec("host:2@0.001")
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunActions(b, d, Config{Model: smpi.Identity(), Faults: faults}, perRank)
		if err == nil {
			t.Fatal("expected a FailedRanksError")
		}
		return err.Error()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("abort diagnosis not deterministic:\n%s\n%s", a, b)
	}
}

// TestReplayAbortReleasesRanks: an aborted replay leaves ranks 2 and 3
// blocked on their dead peers. Run must still return the lost-rank
// diagnosis, and neither rank may outlive it, run after run.
func TestReplayAbortReleasesRanks(t *testing.T) {
	faults, err := platform.ParseFaultSpec("host:1@0")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		b, d, perRank := faultSetup(t)
		_, err := RunActions(b, d, Config{Model: smpi.Identity(), Faults: faults}, perRank)
		var fre *FailedRanksError
		if !errors.As(err, &fre) || len(fre.Ranks) != 2 || fre.Ranks[0].Actions != 1 {
			t.Fatalf("run %d: err = %v, want ranks 0 and 1 lost", i, err)
		}
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestReplayFaultFreeWithFaultsAfterEnd(t *testing.T) {
	// A fault scheduled long after the trace completes must not change the
	// result at all.
	b, d, perRank := faultSetup(t)
	base, err := RunActions(b, d, Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	b2, d2 := paperSetup(t, 4)
	faults, err := platform.ParseFaultSpec("host:1@1e6")
	if err != nil {
		t.Fatal(err)
	}
	late, err := RunActions(b2, d2, Config{Model: smpi.Identity(), Faults: faults}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if late.SimulatedTime != base.SimulatedTime || late.Actions != base.Actions {
		t.Fatalf("late fault perturbed the run: %g/%d vs %g/%d",
			late.SimulatedTime, late.Actions, base.SimulatedTime, base.Actions)
	}
}

func TestReplayCkptPolicyRidesThroughFailure(t *testing.T) {
	b, d, perRank := faultSetup(t)
	base, err := RunActions(b, d, Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	M := base.SimulatedTime

	b2, d2 := paperSetup(t, 4)
	faults, err := platform.ParseFaultSpec(fmt.Sprintf("host:1@%g", M/2))
	if err != nil {
		t.Fatal(err)
	}
	ck := &Ckpt{Interval: M / 4, Cost: M / 100, Restart: M / 50, Down: M / 50}
	res, err := RunActions(b2, d2, Config{Model: smpi.Identity(), Faults: faults, Ckpt: ck}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Resilience
	if r == nil {
		t.Fatal("ckpt run returned no resilience breakdown")
	}
	if r.FaultFree != M {
		t.Fatalf("fault-free makespan %g != baseline %g", r.FaultFree, M)
	}
	if r.Failures != 1 || r.Wasted <= 0 {
		t.Fatalf("breakdown %+v, want 1 failure with waste", r)
	}
	if res.SimulatedTime != r.Effective || r.Effective <= M {
		t.Fatalf("SimulatedTime %g vs effective %g vs fault-free %g", res.SimulatedTime, r.Effective, M)
	}
	want := r.FaultFree + r.CkptTime + r.Wasted + r.Downtime
	if math.Abs(r.Effective-want) > 1e-9*want {
		t.Fatalf("identity violated: %g != %g", r.Effective, want)
	}
}

func TestReplayCkptWithoutFaultsPaysCheckpointsOnly(t *testing.T) {
	b, d, perRank := faultSetup(t)
	base, err := RunActions(b, d, Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	b2, d2 := paperSetup(t, 4)
	ck := &Ckpt{Interval: base.SimulatedTime / 3, Cost: 1}
	res, err := RunActions(b2, d2, Config{Model: smpi.Identity(), Ckpt: ck}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Resilience
	if r.Failures != 0 || r.Wasted != 0 {
		t.Fatalf("fault-free ckpt run has waste: %+v", r)
	}
	if r.Checkpoints == 0 || res.SimulatedTime != base.SimulatedTime+r.CkptTime {
		t.Fatalf("ckpt overhead wrong: %+v on base %g", r, base.SimulatedTime)
	}
}

// TestCkptApplyMatchesRun pins what lets sweep cells share a replay: a
// protocol applied to a fault-free run's makespan yields, bit for bit, the
// breakdown that protocol's own replay reports, and a bad protocol fails
// Apply with Validate's error.
func TestCkptApplyMatchesRun(t *testing.T) {
	perRank := perRankActions(t, figure1Trace, 4)
	b, d := paperSetup(t, 4)
	base, err := RunActions(b, d, Config{}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	M := base.SimulatedTime
	faults, err := platform.ParseFaultSpec(fmt.Sprintf("host:1@%g,mtbf:%g,seed:3", M/2, 4*M))
	if err != nil {
		t.Fatal(err)
	}
	bits := func(r *Resilience) [6]uint64 {
		return [6]uint64{math.Float64bits(r.FaultFree), math.Float64bits(r.Effective),
			math.Float64bits(r.CkptTime), math.Float64bits(r.Wasted),
			math.Float64bits(r.Recomputed), math.Float64bits(r.Downtime)}
	}
	for _, spec := range []string{"60/5", "30/2/4/20"} {
		ck, err := ParseCkpt(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, d := paperSetup(t, 4)
		own, err := RunActions(b, d, Config{Faults: faults, Ckpt: ck}, perRank)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.Apply(M, faults)
		if err != nil {
			t.Fatal(err)
		}
		want := own.Resilience
		if bits(got) != bits(want) || got.Checkpoints != want.Checkpoints || got.Failures != want.Failures {
			t.Errorf("ckpt=%s: Apply %+v, own run %+v", spec, got, want)
		}
		if want.Failures == 0 {
			t.Errorf("ckpt=%s: no failure struck; the fault spec tests nothing", spec)
		}
	}
	for _, bad := range []*Ckpt{{Interval: 1, Cost: -1}, {Interval: 0}} {
		if _, err := bad.Apply(M, faults); err == nil || err.Error() != bad.Validate().Error() {
			t.Fatalf("Apply on %+v: %v, want %v", *bad, err, bad.Validate())
		}
	}
}

// TestCkptApplyBoundsWrites: the walker steps once per checkpoint write, so
// an interval far below the run length must fail fast with the bound's
// message instead of spinning, while an interval under the bound keeps its
// exact waste breakdown.
func TestCkptApplyBoundsWrites(t *testing.T) {
	start := time.Now()
	_, err := (&Ckpt{Interval: 1e-9}).Apply(0.02, nil)
	want := "replay: checkpoint/restart: interval 1e-09 needs more than 1048576 checkpoint writes over a 0.02 s run"
	if err == nil || err.Error() != want {
		t.Fatalf("Apply(1e-9 over 0.02 s) = %v, want %s", err, want)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("bounded walk took %v", el)
	}
	got, err := (&Ckpt{Interval: 1e-6, Cost: 1e-7}).Apply(0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The breakdown the unbounded walker returned for the same protocol.
	exp := Resilience{
		FaultFree:   math.Float64frombits(0x3f947ae147ae147b),
		Effective:   math.Float64frombits(0x3f96872b020c3fc6),
		CkptTime:    math.Float64frombits(0x3f60624dd2f1ac1d),
		Checkpoints: 20000,
	}
	if *got != exp {
		t.Fatalf("Apply(1e-6 over 0.02 s) = %+v, want %+v", *got, exp)
	}
}

// TestCkptApplyBoundsAbsorbedFailures: failures a recovery window absorbs
// count against the walker's failure bound, so a restart window far longer
// than the MTBF fails fast with the convergence error instead of pulling
// failure instants without end. The watchdog turns an unbounded walk into a
// failure rather than a hung test.
func TestCkptApplyBoundsAbsorbedFailures(t *testing.T) {
	faults, err := platform.ParseFaultSpec("mtbf:0.000001")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := (&Ckpt{Interval: 0.01, Cost: 0.001, Restart: 100}).Apply(0.02, faults)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "does not converge") {
			t.Fatalf("Apply(100 s restart under mtbf:1e-6) = %v, want the convergence error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Apply(100 s restart under mtbf:1e-6) still walking after 10 s")
	}
}

func TestReplayCkptInvalidConfig(t *testing.T) {
	b, d, perRank := faultSetup(t)
	_, err := RunActions(b, d, Config{Ckpt: &Ckpt{Interval: -1}}, perRank)
	if err == nil {
		t.Fatal("invalid ckpt config accepted")
	}
}

func TestReplayDegradationOnlySpecNeedsNoRecovery(t *testing.T) {
	// bw: clauses have no fail-stop: the run completes normally (slower),
	// with no FailedRanksError and no Resilience.
	b, d, perRank := faultSetup(t)
	base, err := RunActions(b, d, Config{Model: smpi.Identity()}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	b2, d2 := paperSetup(t, 4)
	faults, err := platform.ParseFaultSpec(fmt.Sprintf("bw:0.1@0-%g", base.SimulatedTime))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunActions(b2, d2, Config{Model: smpi.Identity(), Faults: faults}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTime <= base.SimulatedTime {
		t.Fatalf("degraded run %g not slower than base %g", res.SimulatedTime, base.SimulatedTime)
	}
	if res.Resilience != nil {
		t.Fatal("no ckpt configured, Resilience must be nil")
	}
}

// BenchmarkFaultFreeReplay pins the zero-fault hot path: a replay with no
// Faults and no Ckpt must run the exact same code as before the fault layer
// existed — same ns/op, zero allocs/op (guarded like the steady-state
// benchmark, and by the CI benchdiff gate).
func BenchmarkFaultFreeReplay(b *testing.B) {
	bld, err := platform.BuildBordereauCustom(2, 1, platform.BordereauPower)
	if err != nil {
		b.Fatal(err)
	}
	d, err := platform.RoundRobin(bld.HostNames, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	sources := []Source{
		&pingPongSource{rank: 0, n: b.N, vol: 128 * 1024},
		&pingPongSource{rank: 1, n: b.N, vol: 128 * 1024},
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	res, err := Run(bld, d, Config{Model: smpi.Identity()}, sources)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatal(err)
	}
	if res.Actions != int64(2*b.N) {
		b.Fatalf("replayed %d actions, want %d", res.Actions, 2*b.N)
	}
	if res.Resilience != nil {
		b.Fatal("fault-free run produced a resilience breakdown")
	}
	if b.N >= 10000 {
		perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N)
		if perOp >= 1 {
			b.Fatalf("fault-free replay allocates %.3f allocs/op, want amortised 0", perOp)
		}
	}
}
