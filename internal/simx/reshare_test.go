package simx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tireplay/internal/eventq"
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
// transfers and compute bursts, ready to run. With repeat, the routes that
// cross the backbone name it twice, [up_i, bb, up_j, bb].
func randomContendedKernel(seed int64, repeat bool) *Kernel {
	rng := rand.New(rand.NewSource(seed))
	k := New()

	nHosts := 3 + rng.Intn(6)
	backbone := k.AddLink("bb", (1+rng.Float64())*1e9, 1e-6)
	uplinks := make([]*Link, nHosts)
	hosts := make([]*Host, nHosts)
	for i := 0; i < nHosts; i++ {
		hosts[i] = k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1+rng.Intn(2))
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
				if repeat {
					links = append(links, backbone)
				}
			}
			k.AddRoute(hosts[i].Name, hosts[j].Name, links)
		}
	}

	// A random ring shift keeps the pattern a permutation (no deadlocks)
	// while still exercising different contention graphs per seed.
	shift := 1 + rng.Intn(nHosts-1)
	rounds := 2 + rng.Intn(4)
	ringShift(k, hosts, shift, rounds, func() (sleep, bytes, flops float64) {
		return rng.Float64() * 1e-3, 1e4 + rng.Float64()*5e6, 1e5 + rng.Float64()*1e7
	})
	return k
}

// ringShift spawns one process per host, each sending rounds messages to the
// process shift places on (a permutation, so nothing deadlocks): it sleeps,
// then alternates an exchange with a compute burst, with the sizes size
// returns for it (called once per process, in host order).
func ringShift(k *Kernel, hosts []*Host, shift, rounds int, size func() (sleep, bytes, flops float64)) {
	// inbox[p] carries the shifted ring's messages into p.
	inbox := make([]MailboxID, len(hosts))
	for p := range inbox {
		inbox[p] = k.NewMailbox()
	}
	for p := range hosts {
		src := p
		dst := (p + shift) % len(hosts)
		sleep, bytes, flops := size()
		k.Spawn(fmt.Sprintf("p%d", p), hosts[p], func(pr *Proc) {
			pr.Sleep(sleep)
			for r := 0; r < rounds; r++ {
				c := pr.ISend(inbox[dst], bytes)
				pr.Recv(inbox[src])
				pr.WaitComm(c)
				pr.Execute(flops)
			}
		})
	}
}

// decodeContendedKernel decodes fuzz input into a contended platform, ready
// to run; missing bytes read as zero. It has 2-8 hosts, each behind an
// uplink, a shared backbone "bb" and up to three spare links; uplinks and
// spares may be fatpipes. Each route of the ring-shift exchange either
// crosses the backbone between the two uplinks, naming it a second time at
// the end if asked, or is 1-4 links drawn from all of them, repeats allowed.
// Processes start staggered with varied transfer and compute sizes, and an
// all-link degradation window may cut through the run.
func decodeContendedKernel(data []byte) *Kernel {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	k := New()
	n := 2 + next()%7
	links := []*Link{k.AddLink("bb", float64(1+next()%16)*1.25e8, 1e-6)}
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1+next()%2)
	}
	// links[1+i] is host i's uplink; spares follow.
	for i, nl := 0, n+next()%4; i < nl; i++ {
		b := next()
		l := k.AddLink(fmt.Sprintf("l%d", i), float64(1+b%31)*2.5e7, 1e-7)
		if b&0x80 != 0 {
			l.Sharing = SharingFatpipe
		}
		links = append(links, l)
	}
	shift := 1 + next()%(n-1)
	for i := range hosts {
		j := (i + shift) % n
		var route []*Link
		if spec := next(); spec%3 == 0 {
			route = []*Link{links[1+i], links[0], links[1+j]}
			if spec&0x80 != 0 {
				route = append(route, links[0])
			}
		} else {
			for m := 0; m <= spec%4; m++ {
				route = append(route, links[next()%len(links)])
			}
		}
		k.AddRoute(hosts[i].Name, hosts[j].Name, route)
	}
	rounds := 1 + next()%4
	ringShift(k, hosts, shift, rounds, func() (sleep, bytes, flops float64) {
		return float64(next()) * 2e-5, float64(next()) * 4e4, float64(next()) * 1e5
	})
	if w := next(); w%2 == 1 {
		from := float64(next()) * 1e-4
		k.DegradeAllLinksAt(float64(1+w%16)/8, from, from+float64(1+next())*1e-4)
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

// ulpsPerSettle is what FuzzPartialReshare allows beyond maxCompletionUlps
// for every settle since a pending completion event got its time T, because
// a flow the lazy path keeps in place through many settles drifts past any
// fixed bound (the committed input d06f2788d2a9da34 has one 5 ulps off after
// 11 settles). Settling from lastUpdate u to now rounds d = now-u, rate*d and
// remaining-rate*d, each to within a factor 1±2^-53, so to first order it
// moves lastUpdate + remaining/rate by at most 2^-53*(2d + remaining/rate),
// which is at most 2^-52*(T-u): under two ulps of T. A missed reschedule is
// off by far more.
const ulpsPerSettle = 2

// settleDrift counts, across the checks of one checked run, the settles that
// moved each activity's lastUpdate since its pending completion event got its
// time.
type settleDrift struct{ placed, next map[*activity]placement }

// placement is what settleDrift keeps of an activity from one check to the
// next: its pending event and the event's time, its lastUpdate, and the
// settles counted so far.
type placement struct {
	ev             *eventq.Event
	at, lastUpdate float64
	settles        int
}

// turn starts a check: the placements the last check recorded become the
// ones to compare with.
func (d *settleDrift) turn() {
	d.placed, d.next = d.next, make(map[*activity]placement, len(d.next))
}

// settles records a's placement for the next check and returns how many
// settles moved a's lastUpdate since its pending event got its time.
func (d *settleDrift) settles(a *activity) int {
	p, ok := d.placed[a]
	switch {
	case !ok || p.ev != a.doneEv || p.at != a.doneEv.Time:
		p = placement{ev: a.doneEv, at: a.doneEv.Time}
	case p.lastUpdate != a.lastUpdate:
		p.settles++
	}
	p.lastUpdate = a.lastUpdate
	d.next[a] = p
	return p.settles
}

// checkReshareInvariant verifies between two events what the partial and
// lazy sharing paths promise: every transfer's rate is, bit for bit, the
// bandwidth-factored share a fresh solve of the whole flow set gives it;
// every compute burst runs at its host's fair share; and every pending
// completion event sits within maxCompletionUlps of
// lastUpdate + remaining/rate, plus ulpsPerSettle per settle counted by
// drift when it is not nil.
func checkReshareInvariant(t *testing.T, k *Kernel, what string, drift *settleDrift) {
	t.Helper()
	if drift != nil {
		drift.turn()
	}
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
		checkCompletion(t, k, f, what, f.srcName+"->"+f.dstName, drift)
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
			checkCompletion(t, k, a, what, a.ownerName, drift)
		}
	}
}

func checkCompletion(t *testing.T, k *Kernel, a *activity, what, who string, drift *settleDrift) {
	t.Helper()
	if a.doneEv == nil {
		t.Fatalf("%s t=%g: %s has no completion event", what, k.now, who)
	}
	bound, settles := maxCompletionUlps, 0
	if drift != nil {
		settles = drift.settles(a)
		bound += ulpsPerSettle * settles
	}
	if want := a.lastUpdate + a.remaining/a.rate; ulpsApart(a.doneEv.Time, want) > bound {
		t.Fatalf("%s t=%g: %s completes at %v, lastUpdate+remaining/rate = %v (%d ulps after %d settles)",
			what, k.now, who, a.doneEv.Time, want, ulpsApart(a.doneEv.Time, want), settles)
	}
}

// runChecked runs k to completion the way Kernel.Run does, one event at a
// time (like pumpOne), checking the reshare invariant after every event and
// after every batch of process steps, and around every event that moves a
// flow into or out of the contended set, that the reshare settled exactly
// that flow's component (see watchSettles).
func runChecked(t *testing.T, k *Kernel, what string) float64 {
	t.Helper()
	return runCheckedDrift(t, k, what, nil)
}

// runCheckedDrift is runChecked, allowing each pending completion event the
// drift of the settles that drift counts when it is not nil.
func runCheckedDrift(t *testing.T, k *Kernel, what string, drift *settleDrift) float64 {
	t.Helper()
	for {
		for !k.runq.Empty() {
			k.step(k.runq.Pop())
			if k.procPanic != nil {
				t.Fatalf("%s: %v", what, k.procPanic)
			}
		}
		checkReshareInvariant(t, k, what, drift)
		if k.living == 0 && k.pendingTimers == k.queue.Len() {
			break
		}
		ev := k.queue.Pop()
		if ev == nil {
			break
		}
		k.now = ev.Time
		check := watchSettles(k, ev)
		k.handleEvent(ev)
		k.queue.Recycle(ev)
		if check != nil {
			check(t, what)
		}
		checkReshareInvariant(t, k, what, drift)
	}
	if k.blocked > 0 {
		t.Fatalf("%s: %d processes still blocked at t=%g", what, k.blocked, k.now)
	}
	return k.now
}

// progress is what settling a flow writes.
type progress struct{ remaining, lastUpdate float64 }

// watchSettles prepares the settle-set check of one event. If the event
// moves a flow into or out of the contended set, it records that flow's
// connected component — after the add when the flow joins, before the
// remove when it leaves, so both are the current set with the flow in it —
// and every flow's progress, and returns the check to run after the event:
// every flow whose progress changed lies in the component, and every flow
// of the component still in the set was settled to now. The component is
// found by comparing link lists, not through the kernel's per-link flow
// lists. Any other event returns nil.
func watchSettles(k *Kernel, ev *eventq.Event) func(t *testing.T, what string) {
	a, ok := ev.Payload.(*activity)
	if !ok || a.kind != actComm {
		return nil
	}
	joining := a.phase == phaseLatency && a.remaining > 0
	leaving := a.phase == phaseTransfer && a.pos >= 0
	if !joining && !leaving {
		return nil
	}
	comp := map[*activity]bool{a: true}
	for grew := true; grew; {
		grew = false
		for _, f := range k.flows {
			if comp[f] {
				continue
			}
			for g := range comp {
				if sharesLink(f, g) {
					comp[f], grew = true, true
					break
				}
			}
		}
	}
	before := make(map[*activity]progress, len(k.flows))
	for _, f := range k.flows {
		before[f] = progress{f.remaining, f.lastUpdate}
	}
	moved := a.srcName + "->" + a.dstName
	return func(t *testing.T, what string) {
		t.Helper()
		for _, f := range k.flows {
			was, ok := before[f]
			if !ok {
				continue // the flow that joined
			}
			if !comp[f] && (f.remaining != was.remaining || f.lastUpdate != was.lastUpdate) {
				t.Fatalf("%s t=%g: the transition of %s settled %s->%s, outside its component",
					what, k.now, moved, f.srcName, f.dstName)
			}
			if comp[f] && f.lastUpdate != k.now {
				t.Fatalf("%s t=%g: the transition of %s left %s->%s of its component unsettled",
					what, k.now, moved, f.srcName, f.dstName)
			}
		}
	}
}

// sharesLink reports whether two flows cross a common link.
func sharesLink(f, g *activity) bool {
	for _, l := range f.links {
		for _, m := range g.links {
			if l == m {
				return true
			}
		}
	}
	return false
}

// TestPartialReshareMatchesGlobal checks the invariant behind the partial
// and lazy sharing paths after every event (see checkReshareInvariant) on
// random multi-hop topologies whose components merge and split: every rate
// is the one a global re-solve would assign, every completion event stays
// where an eager reschedule would put it, and each transition settles its
// component and nothing else. Summed over the seeds, transitions take both
// the backbone shortcut and the walk.
func TestPartialReshareMatchesGlobal(t *testing.T) {
	var transitions, walkSkips uint64
	for seed := int64(1); seed <= 25; seed++ {
		k := randomContendedKernel(seed, false)
		runChecked(t, k, fmt.Sprintf("seed %d", seed))
		transitions += k.transitions
		walkSkips += k.walkSkips
	}
	if walkSkips == 0 || walkSkips == transitions {
		t.Fatalf("%d of %d transitions skipped the walk, want some but not all", walkSkips, transitions)
	}
}

// TestPartialReshareRepeatedLinks checks the same invariants on routes that
// name a link twice: the random topologies with every backbone route
// crossing the backbone again at its end, and a flow over [L, X, L] beside a
// flow on a disjoint link, which must stay unsettled when the first one
// comes and goes. A link's flow list that held the first flow twice would
// count two flows on L and take it for the whole set.
func TestPartialReshareRepeatedLinks(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		runChecked(t, randomContendedKernel(seed, true), fmt.Sprintf("repeated backbone, seed %d", seed))
	}
	k := New()
	for i := 0; i < 4; i++ {
		k.AddHost(fmt.Sprintf("h%d", i), 1e9, 1)
	}
	l, x, y := k.AddLink("L", 1e8, 1e-5), k.AddLink("X", 1e8, 1e-5), k.AddLink("Y", 1e8, 1e-6)
	k.AddRoute("h0", "h1", []*Link{l, x, l})
	k.AddRoute("h2", "h3", []*Link{y})
	for _, tr := range []struct {
		src, dst string
		bytes    float64
	}{{"h0", "h1", 1e6}, {"h2", "h3", 5e6}} {
		mb := k.NewMailbox()
		k.Spawn("send "+tr.src, k.Host(tr.src), func(p *Proc) { p.Send(mb, tr.bytes) })
		k.Spawn("recv "+tr.dst, k.Host(tr.dst), func(p *Proc) { p.Recv(mb) })
	}
	runChecked(t, k, "[L, X, L] beside [Y]")
	if k.transitions != 4 {
		t.Fatalf("%d transitions, want 4", k.transitions)
	}
}

// TestPartialReshareMatchesGlobalRing checks the invariant on contended
// rings, where every flow shares the backbone with its neighbours, so every
// transition re-solves the whole set without walking it.
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
		// Every transition re-solves the whole set through the memo, and
		// the ring's flow sets repeat: the memo must have answered some.
		if k.MemoHits() == 0 {
			t.Fatalf("ring %d: the solve memo never hit", n)
		}
		if k.transitions == 0 || k.walkSkips != k.transitions {
			t.Fatalf("ring %d: %d of %d transitions skipped the walk, want all", n, k.walkSkips, k.transitions)
		}
	}
}

// FuzzPartialReshare runs decoded contended platforms (see
// decodeContendedKernel) through the checked runner: after every event each
// rate must equal a global solve's bit for bit and each completion event sit
// where an eager reschedule would put it, within the drift of the settles
// since it was placed (see ulpsPerSettle), and each transition must settle
// exactly its flow's component.
func FuzzPartialReshare(f *testing.F) {
	// Shapes like randomContendedKernel's: 6 hosts whose backbone routes
	// alternately name the backbone twice, beside drawn routes [l2 l2] and
	// [l0 bb l0], under a 0.75 window; 8 hosts all over the backbone behind
	// fatpipe and shared uplinks under a 0.5 window; 5 hosts with drawn
	// routes, one of them [l1 l0 l0].
	f.Add([]byte{4, 7, 0, 1, 0, 1, 0, 1, 1, 9, 20, 33, 48, 5, 12, 130, 1, 129, 0, 129, 1, 3, 3, 0, 2, 1, 0, 1, 3,
		10, 40, 90, 30, 80, 20, 60, 70, 5, 0, 100, 20, 45, 25, 120, 15, 60, 40, 5, 20, 100})
	f.Add([]byte{6, 3, 1, 0, 1, 1, 0, 0, 1, 0, 0, 30, 60, 90, 120, 150, 180, 210, 240, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		5, 50, 200, 10, 150, 40, 0, 120, 250, 30, 90, 60, 7, 70, 20, 80, 110, 5, 60, 30, 100, 10, 140, 90, 3, 10, 200})
	f.Add([]byte{3, 15, 0, 0, 1, 1, 0, 200, 31, 140, 2, 1, 5, 3, 1, 6, 4, 2, 2, 7, 1, 0, 0, 0, 2,
		10, 100, 50, 0, 150, 80, 20, 40, 60, 30, 250, 90, 13, 20, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		runCheckedDrift(t, decodeContendedKernel(data), fmt.Sprintf("input %x", data), &settleDrift{})
	})
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
			k := randomContendedKernel(seed, false)
			w.inject(k)
			runChecked(t, k, fmt.Sprintf("%s window, seed %d", w.name, seed))
			hits += k.MemoHits()
		}
		// Not every seed repeats a whole-set solve, but the seeds together
		// do.
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
