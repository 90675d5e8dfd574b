package simx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// traceEvent is one completed activity as seen by a test tracer.
type traceEvent struct {
	kind       string
	a, b       string
	vol        float64
	start, end float64
}

// recTracer records every completion for bit-level comparison of runs.
type recTracer struct{ events []traceEvent }

func (t *recTracer) Compute(proc, host string, flops, start, end float64) {
	t.events = append(t.events, traceEvent{"compute", proc, host, flops, start, end})
}
func (t *recTracer) Comm(src, dst string, bytes, start, end float64) {
	t.events = append(t.events, traceEvent{"comm", src, dst, bytes, start, end})
}

// ulpsApart returns the distance between a and b in units in the last place.
func ulpsApart(a, b float64) int {
	if a == b {
		return 0
	}
	n := 0
	for x := math.Min(a, b); x < math.Max(a, b) && n <= 64; n++ {
		x = math.Nextafter(x, math.Inf(1))
	}
	return n
}

// randomContendedKernel builds a random multi-hop platform (clusters of
// hosts behind uplinks sharing a backbone "bb") with random staggered
// transfers and compute bursts, ready to run.
func randomContendedKernel(seed int64) *Kernel {
	rng := rand.New(rand.NewSource(seed))
	k := New()

	nHosts := 3 + rng.Intn(6)
	backbone := k.AddLink("bb", (1+rng.Float64())*1e9, 1e-6)
	uplinks := make([]*Link, nHosts)
	names := make([]string, nHosts)
	for i := 0; i < nHosts; i++ {
		names[i] = fmt.Sprintf("h%d", i)
		k.AddHost(names[i], 1e9, 1+rng.Intn(2))
		uplinks[i] = k.AddLink(fmt.Sprintf("up%d", i), (1+rng.Float64())*1.25e8, 1e-7)
	}
	for i := 0; i < nHosts; i++ {
		for j := 0; j < nHosts; j++ {
			if i == j {
				continue
			}
			// Half the pairs route only over their uplinks (disjoint from
			// pairs on other uplinks), half cross the shared backbone, so
			// the flow graph has several connected components that merge
			// and split as transfers come and go.
			links := []*Link{uplinks[i], uplinks[j]}
			if (i+j)%2 == 0 {
				links = []*Link{uplinks[i], backbone, uplinks[j]}
			}
			k.AddRoute(names[i], names[j], links)
		}
	}

	// A random ring shift keeps the pattern a permutation (no deadlocks)
	// while still exercising different contention graphs per seed.
	shift := 1 + rng.Intn(nHosts-1)
	rounds := 2 + rng.Intn(4)
	// inbox[p] carries the shifted ring's messages into p.
	inbox := make([]MailboxID, nHosts)
	for p := range inbox {
		inbox[p] = k.NewMailbox()
	}
	for p := 0; p < nHosts; p++ {
		src := p
		dst := (p + shift) % nHosts
		sleep := rng.Float64() * 1e-3
		bytes := 1e4 + rng.Float64()*5e6
		flops := 1e5 + rng.Float64()*1e7
		k.Spawn(fmt.Sprintf("p%d", p), k.Host(names[src]), func(pr *Proc) {
			pr.Sleep(sleep)
			for r := 0; r < rounds; r++ {
				c := pr.ISend(inbox[dst], bytes)
				pr.Recv(inbox[src])
				pr.WaitComm(c)
				pr.Execute(flops)
			}
		})
	}
	return k
}

// ringKernel builds a deterministic contended ring exchange over a shared
// backbone; every flow contends with its neighbours, so every transition
// reshapes bandwidth.
func ringKernel(n int) (*Kernel, *recTracer) {
	k := New()
	tr := &recTracer{}
	k.SetTracer(tr)
	backbone := k.AddLink("bb", 1.25e9, 1e-6)
	uplinks := make([]*Link, n)
	for i := 0; i < n; i++ {
		k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1)
		uplinks[i] = k.AddLink(fmt.Sprintf("up%d", i), 1.25e8, 1e-7)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				k.AddRoute(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j),
					[]*Link{uplinks[i], backbone, uplinks[j]})
			}
		}
	}
	// inbox[p] carries the ring's messages into p.
	inbox := make([]MailboxID, n)
	for p := range inbox {
		inbox[p] = k.NewMailbox()
	}
	for p := 0; p < n; p++ {
		src := p
		dst := (p + 1) % n
		k.Spawn(fmt.Sprintf("p%d", p), k.Host(fmt.Sprintf("h%d", src)), func(pr *Proc) {
			for r := 0; r < 12; r++ {
				c := pr.ISend(inbox[dst], 1e6+float64(src)*1e4)
				pr.Recv(inbox[src])
				pr.WaitComm(c)
				pr.Execute(1e6 + float64(src)*1e3)
			}
		})
	}
	return k, tr
}

// maxCompletionUlps bounds how far a pending completion event may sit from
// lastUpdate + remaining/rate: an event the lazy path left in place was
// computed from an earlier (lastUpdate, remaining) pair, and settling since
// reassociated the same instant. One ulp is not enough; four is.
const maxCompletionUlps = 4

// checkReshareInvariant verifies between two events what the partial and
// lazy sharing paths promise: every transfer's rate is, bit for bit, the
// bandwidth-factored share a fresh solve of the whole flow set gives it;
// every compute burst runs at its host's fair share; and every pending
// completion event sits within maxCompletionUlps of
// lastUpdate + remaining/rate.
func checkReshareInvariant(t *testing.T, k *Kernel, what string) {
	t.Helper()
	fresh := make([]*activity, len(k.flows))
	for i, f := range k.flows {
		fresh[i] = &activity{kind: actComm, links: f.links}
	}
	var s maxMinSolver
	s.solve(fresh)
	for i, f := range k.flows {
		want := fresh[i].allocated * f.bwFactor
		if want <= 0 {
			want = math.SmallestNonzeroFloat64
		}
		if f.rate != want {
			t.Fatalf("%s t=%g: flow %s->%s rate %v, a global solve gives %v",
				what, k.now, f.srcName, f.dstName, f.rate, want)
		}
		checkCompletion(t, k, f, what, f.srcName+"->"+f.dstName)
	}
	for _, h := range k.hostList {
		share := h.Speed
		if n := len(h.computes); n > h.Cores {
			share = h.Speed * float64(h.Cores) / float64(n)
		}
		for _, a := range h.computes {
			if a.volume <= 0 {
				continue // zero-work bursts complete through the queue at once
			}
			if a.rate != share {
				t.Fatalf("%s t=%g: burst of %s on %s rate %v, host share %v",
					what, k.now, a.ownerName, h.Name, a.rate, share)
			}
			checkCompletion(t, k, a, what, a.ownerName)
		}
	}
}

func checkCompletion(t *testing.T, k *Kernel, a *activity, what, who string) {
	t.Helper()
	if a.doneEv == nil {
		t.Fatalf("%s t=%g: %s has no completion event", what, k.now, who)
	}
	if want := a.lastUpdate + a.remaining/a.rate; ulpsApart(a.doneEv.Time, want) > maxCompletionUlps {
		t.Fatalf("%s t=%g: %s completes at %v, lastUpdate+remaining/rate = %v (%d ulps)",
			what, k.now, who, a.doneEv.Time, want, ulpsApart(a.doneEv.Time, want))
	}
}

// runChecked runs k to completion the way Kernel.Run does, one event at a
// time (like pumpOne), checking the reshare invariant after every event and
// after every batch of process steps.
func runChecked(t *testing.T, k *Kernel, what string) float64 {
	t.Helper()
	for {
		for !k.runq.Empty() {
			k.step(k.runq.Pop())
			if k.procPanic != nil {
				t.Fatalf("%s: %v", what, k.procPanic)
			}
		}
		checkReshareInvariant(t, k, what)
		if k.living == 0 && k.pendingTimers == k.queue.Len() {
			break
		}
		ev := k.queue.Pop()
		if ev == nil {
			break
		}
		k.now = ev.Time
		k.handleEvent(ev)
		k.queue.Recycle(ev)
		checkReshareInvariant(t, k, what)
	}
	if k.blocked > 0 {
		t.Fatalf("%s: %d processes still blocked at t=%g", what, k.blocked, k.now)
	}
	return k.now
}

// TestPartialReshareMatchesGlobal checks the invariant behind the partial
// and lazy sharing paths after every event (see checkReshareInvariant) on
// random multi-hop topologies whose components merge and split: every rate
// is the one a global re-solve would assign, and every completion event
// stays where an eager reschedule would put it.
func TestPartialReshareMatchesGlobal(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		runChecked(t, randomContendedKernel(seed), fmt.Sprintf("seed %d", seed))
	}
}

// TestPartialReshareMatchesGlobalRing checks the invariant on contended
// rings, where every flow shares the backbone with its neighbours.
func TestPartialReshareMatchesGlobalRing(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		k, _ := ringKernel(n)
		runChecked(t, k, fmt.Sprintf("ring %d", n))
		// With only two hosts every transition really does move every rate;
		// from three on, some co-solved flows keep their share and the lazy
		// path must have elided their reschedules.
		if n > 2 && k.LazySkips() == 0 {
			t.Fatalf("ring %d: lazy path recorded no skipped reschedules", n)
		}
		// From three flows on, solves go through the memo, and the ring's
		// flow sets repeat: the memo must have answered some of them.
		if n > 2 && k.MemoHits() == 0 {
			t.Fatalf("ring %d: the solve memo never hit", n)
		}
	}
}

// degradeWindows are the all-link and all-host degradation windows the
// lazy-rescheduling tests inject; each falls inside the runs it degrades,
// so it moves rates of flows and bursts in flight.
var degradeWindows = []struct {
	name   string
	inject func(k *Kernel)
}{
	{"links", func(k *Kernel) { k.DegradeAllLinksAt(0.5, 0.004, 0.03) }},
	{"hosts", func(k *Kernel) { k.DegradeAllHostsAt(0.25, 0.003, 0.025) }},
}

// TestLazyRescheduleMatchesEager checks the invariant on the contended rings
// under each degradation window: where a window moves a rate the lazy path
// must reschedule, and where a reshare leaves one alone it may skip, but
// every completion event must sit where an eager reschedule would put it.
func TestLazyRescheduleMatchesEager(t *testing.T) {
	for _, w := range degradeWindows {
		for _, n := range []int{3, 8, 16} {
			k, _ := ringKernel(n)
			w.inject(k)
			runChecked(t, k, fmt.Sprintf("%s window, ring %d", w.name, n))
			if k.LazySkips() == 0 {
				t.Fatalf("%s window, ring %d: lazy path recorded no skipped reschedules", w.name, n)
			}
			if k.MemoHits() == 0 {
				t.Fatalf("%s window, ring %d: the solve memo never hit", w.name, n)
			}
		}
	}
}

// TestLazyRescheduleRandomTopologies checks the invariant on the random
// multi-hop topologies under each degradation window.
func TestLazyRescheduleRandomTopologies(t *testing.T) {
	for _, w := range degradeWindows {
		var hits uint64
		for seed := int64(1); seed <= 8; seed++ {
			k := randomContendedKernel(seed)
			w.inject(k)
			runChecked(t, k, fmt.Sprintf("%s window, seed %d", w.name, seed))
			hits += k.MemoHits()
		}
		// Not every seed repeats a solve of three or more flows, but the
		// seeds together do.
		if hits == 0 {
			t.Fatalf("%s window: the solve memo never hit on any seed", w.name)
		}
	}
}

// TestRepeatedRunDeterminism verifies run-to-run bit-level determinism on a
// contended topology: with intrusive ordered sets there is no map iteration
// left to randomize floating-point accumulation order.
func TestRepeatedRunDeterminism(t *testing.T) {
	var refEnd float64
	var refEv []traceEvent
	for run := 0; run < 5; run++ {
		k, tr := ringKernel(9)
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			refEnd = end
			refEv = append([]traceEvent(nil), tr.events...)
			continue
		}
		if end != refEnd {
			t.Fatalf("run %d: makespan %v != %v", run, end, refEnd)
		}
		if len(tr.events) != len(refEv) {
			t.Fatalf("run %d: %d events != %d", run, len(tr.events), len(refEv))
		}
		for i := range refEv {
			if tr.events[i] != refEv[i] {
				t.Fatalf("run %d event %d: %+v != %+v", run, i, tr.events[i], refEv[i])
			}
		}
	}
}

// TestSolverRepeatedSolveDeterministic re-solves an identical flow slice and
// demands bit-identical allocations every time.
func TestSolverRepeatedSolveDeterministic(t *testing.T) {
	flows, _ := benchFlows(64, 16)
	var s maxMinSolver
	s.solve(flows)
	ref := make([]float64, len(flows))
	for i, a := range flows {
		ref[i] = a.allocated
	}
	for round := 0; round < 10; round++ {
		s.solve(flows)
		for i, a := range flows {
			if a.allocated != ref[i] {
				t.Fatalf("round %d flow %d: %v != %v", round, i, a.allocated, ref[i])
			}
		}
	}
}

// TestUnconstrainedFlowGetsLargestBandwidth covers the documented fallback:
// a flow crossing no links must receive the largest link bandwidth seen by
// the solve — not a zero share that would hang the transfer.
func TestUnconstrainedFlowGetsLargestBandwidth(t *testing.T) {
	la := &Link{Name: "a", Bandwidth: 50}
	lb := &Link{Name: "b", Bandwidth: 200}
	free := &activity{kind: actComm, bwFactor: 1} // no links
	f1 := &activity{kind: actComm, links: []*Link{la}, bwFactor: 1}
	f2 := &activity{kind: actComm, links: []*Link{lb}, bwFactor: 1}
	var s maxMinSolver
	s.solve([]*activity{f1, free, f2})
	if free.allocated != 200 {
		t.Fatalf("unconstrained flow allocated %v, want 200 (largest bandwidth seen)", free.allocated)
	}
	if f1.allocated != 50 || f2.allocated != 200 {
		t.Fatalf("constrained flows got %v, %v", f1.allocated, f2.allocated)
	}
	// With no links anywhere the share degenerates to "effectively
	// infinite" but stays finite so rate arithmetic cannot produce NaNs.
	lone := &activity{kind: actComm, bwFactor: 1}
	s.solve([]*activity{lone})
	if lone.allocated != math.MaxFloat64 {
		t.Fatalf("linkless-only solve allocated %v", lone.allocated)
	}
}

// TestSolveZeroAllocs guards the solver's allocation-free steady state.
func TestSolveZeroAllocs(t *testing.T) {
	flows, _ := benchFlows(64, 16)
	var s maxMinSolver
	s.solve(flows) // warm scratch
	if n := testing.AllocsPerRun(100, func() { s.solve(flows) }); n != 0 {
		t.Fatalf("solve allocates %v times per run", n)
	}
}
