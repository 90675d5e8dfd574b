package simx

import (
	"fmt"
	"math"
	"testing"
)

// memoNet is a small platform for driving solveMemo directly: links of
// either sharing policy (kept so a test can rescale them) and routes over
// them, numbered from 1 the way a kernel numbers the routes it resolves.
type memoNet struct {
	links  []*Link
	routes []*Route
}

// flows builds one transfer per route index, in order.
func (nt *memoNet) flows(idx []int) []*activity {
	out := make([]*activity, len(idx))
	for i, r := range idx {
		rt := nt.routes[r]
		out[i] = &activity{kind: actComm, links: rt.Links, route: rt.id, bwFactor: 1}
	}
	return out
}

// checkMemoSolve solves one ordered flow set through every memo and
// through a fresh solver, and fails unless every allocation agrees bit for
// bit.
func checkMemoSolve(t *testing.T, nt *memoNet, memos []*solveMemo, idx []int, what string) {
	t.Helper()
	want := nt.flows(idx)
	var fresh maxMinSolver
	fresh.solve(want)
	var s maxMinSolver
	for mi, m := range memos {
		got := nt.flows(idx)
		m.solve(&s, got)
		for i := range got {
			if math.Float64bits(got[i].allocated) != math.Float64bits(want[i].allocated) {
				t.Fatalf("%s: memo %d flow %d (route %d) allocated %v, a fresh solve gives %v",
					what, mi, i, idx[i], got[i].allocated, want[i].allocated)
			}
		}
	}
}

// TestSolveMemoBoundedStorage drives a memo of one 4-way set and a 40-word
// arena with more distinct flow sets than it holds: every answer must match
// a fresh solve, the least recently used way is the one evicted, and the
// arena is rewound with the table cleared instead of growing past its cap.
func TestSolveMemoBoundedStorage(t *testing.T) {
	bb := &Link{Name: "bb", Bandwidth: 1e9}
	nt := &memoNet{}
	for i := 0; i < 6; i++ {
		up := &Link{Name: fmt.Sprintf("up%d", i), Bandwidth: 1e8 * float64(i+1)}
		nt.routes = append(nt.routes, &Route{Links: []*Link{up, bb}, id: int32(i + 1)})
	}
	m := &solveMemo{sets: 1, arenaCap: 40}
	sets := [][]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5}}
	solve := func(i int, what string) {
		t.Helper()
		checkMemoSolve(t, nt, []*solveMemo{m}, sets[i], fmt.Sprintf("%s: set %d", what, i))
	}
	expect := func(hits, misses uint64, what string) {
		t.Helper()
		if m.hits != hits || m.misses != misses {
			t.Fatalf("%s: %d hits, %d misses; want %d, %d", what, m.hits, m.misses, hits, misses)
		}
	}
	// Four keys fill the set and all hit. Hit in reverse, they leave set 3
	// (inserted last) the least recently used, so a fifth key evicts it and
	// only it.
	for i := 0; i < 4; i++ {
		solve(i, "fill")
	}
	for i := 3; i >= 0; i-- {
		solve(i, "hit")
	}
	expect(4, 4, "four keys in four ways")
	solve(4, "evict")
	for _, i := range []int{0, 1, 2, 4} {
		solve(i, "kept")
	}
	expect(8, 5, "after one eviction")
	solve(3, "evicted")
	expect(8, 6, "the evicted key")

	// Each entry takes five words, so the eighth one rewinds the arena and
	// leaves it the only entry in the table.
	rewinds := 0
	for round := 0; round < 4; round++ {
		for i := range sets {
			before := len(m.arena)
			solve(i, fmt.Sprintf("round %d", round))
			if len(m.arena) > m.arenaCap {
				t.Fatalf("arena holds %d words, cap %d", len(m.arena), m.arenaCap)
			}
			if len(m.arena) < before {
				rewinds++
				live := 0
				for _, sl := range m.slots {
					if sl.n != 0 {
						live++
					}
				}
				if live != 1 {
					t.Fatalf("after a rewind %d slots are live, want 1", live)
				}
			}
		}
	}
	if rewinds == 0 {
		t.Fatal("the arena was never rewound")
	}
	// A solve larger than the whole arena is solved, never stored.
	big := make([]int, 30)
	for i := range big {
		big[i] = i % len(nt.routes)
	}
	misses := m.misses
	checkMemoSolve(t, nt, []*solveMemo{m}, big, "oversized")
	if m.misses != misses {
		t.Fatal("an oversized solve was looked up")
	}
}

// TestSolveMemoBypass checks which solves skip the memo: a walked component,
// whatever its size, while every re-solve of the whole flow set is looked
// up, one- and two-flow sets included. Three transfers cross link A and
// three cross the disjoint link B; B's transfers join after A's and leave
// before them, so A's joins re-solve the whole set, B's transitions walk
// components of up to three flows, and A's leaves re-solve the whole set
// again, hitting the entries of A's joins.
func TestSolveMemoBypass(t *testing.T) {
	k := New()
	for _, h := range []string{"a0", "a1", "b0", "b1"} {
		k.AddHost(h, 1e9, 1)
	}
	k.AddRoute("a0", "a1", []*Link{k.AddLink("A", 1e8, 1e-6)})
	k.AddRoute("b0", "b1", []*Link{k.AddLink("B", 1e8, 1e-3)})
	for i := 0; i < 3; i++ {
		for _, isl := range []struct {
			src, dst string
			bytes    float64
		}{{"a0", "a1", 1e8}, {"b0", "b1", 1e4}} {
			mb := k.mailboxAt(k.NewMailbox())
			name := fmt.Sprintf("%s%d", isl.src, i)
			k.post(&Proc{k: k, name: "send " + name, host: k.Host(isl.src)}, mb, isl.bytes*float64(i+1), true)
			k.postRecv(&Proc{k: k, name: "recv " + name, host: k.Host(isl.dst)}, mb)
		}
	}
	var lookups uint64
	for i, want := range []struct {
		whole bool
		flows int // the flows re-solved: the whole set, or the walked component
	}{
		{true, 1}, {true, 2}, {true, 3}, // A's joins
		{false, 1}, {false, 2}, {false, 3}, // B's joins
		{false, 2}, {false, 1}, {false, 0}, // B's leaves
		{true, 2}, {true, 1}, {true, 0}, // A's leaves
	} {
		skips := k.walkSkips
		pumpOne(t, k)
		whole, flows := k.walkSkips > skips, len(k.comp)
		if whole {
			flows = len(k.flows)
		}
		if want.whole && want.flows > 0 {
			lookups++
		}
		if k.transitions != uint64(i+1) || whole != want.whole || flows != want.flows {
			t.Fatalf("event %d: transition %d re-solved %d flows (whole set %v); want transition %d, %d flows (whole set %v)",
				i, k.transitions, flows, whole, i+1, want.flows, want.whole)
		}
		if got := k.memo.hits + k.memo.misses; got != lookups {
			t.Fatalf("event %d (%d flows, whole set %v): %d memo lookups, want %d",
				i, flows, whole, got, lookups)
		}
	}
	if k.memo.hits != 2 {
		t.Fatalf("%d memo hits, want 2: A's leaves repeat the sets of its joins", k.memo.hits)
	}
}

// TestMemoForcedEvictionsMatchGlobal runs the reshare invariant (every rate
// bit-equal to a fresh global solve after every event) on the rings and the
// random topologies with the memo shrunk to one 4-way set and a 64-word
// arena, so entries are evicted and the arena is rewound throughout, plain
// and under both degradation windows.
func TestMemoForcedEvictionsMatchGlobal(t *testing.T) {
	windows := append([]struct {
		name   string
		inject func(k *Kernel)
	}{{"no", func(*Kernel) {}}}, degradeWindows...)
	var hits uint64
	rewinds := 0
	for _, w := range windows {
		var kernels []*Kernel
		for _, n := range []int{3, 8, 16} {
			k, _ := ringKernel(n)
			kernels = append(kernels, k)
		}
		for seed := int64(1); seed <= 8; seed++ {
			kernels = append(kernels, randomContendedKernel(seed, false))
		}
		for i, k := range kernels {
			k.memo.sets, k.memo.arenaCap = 1, 64
			w.inject(k)
			arena := &arenaWatch{m: &k.memo}
			k.SetTracer(arena)
			runChecked(t, k, fmt.Sprintf("%s window, kernel %d, tiny memo", w.name, i))
			hits += k.MemoHits()
			if w.name == "no" {
				// DegradeAllLinksAt empties the arena too.
				rewinds += arena.drops
			}
		}
	}
	if hits == 0 {
		t.Fatal("the shrunk memo never hit")
	}
	if rewinds == 0 {
		t.Fatal("the shrunk memo's arena was never rewound")
	}
}

// arenaWatch is a tracer that counts the times a solve memo's arena is
// shorter at a completion than at the one before. Without a degradation
// window those are rewinds: the arena only grows between them.
type arenaWatch struct {
	m           *solveMemo
	last, drops int
}

func (w *arenaWatch) see() {
	n := len(w.m.arena)
	if n < w.last {
		w.drops++
	}
	w.last = n
}

func (w *arenaWatch) Compute(string, string, float64, float64, float64) { w.see() }
func (w *arenaWatch) Comm(string, string, float64, float64, float64)    { w.see() }

// TestMemoizedReshareZeroAllocs runs three flows contending on one link
// through the memo: once warm, every cycle answers its three-flow solve from
// the memo and allocates nothing.
func TestMemoizedReshareZeroAllocs(t *testing.T) {
	k := New()
	a := k.AddHost("a", 1e9, 1)
	b := k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1.25e8, 1e-6)
	k.AddRoute("a", "b", []*Link{l})
	var send, recv [3]*Proc
	var mbs [3]*Mailbox
	for i := range send {
		send[i] = &Proc{k: k, name: fmt.Sprintf("s%d", i), host: a}
		recv[i] = &Proc{k: k, name: fmt.Sprintf("r%d", i), host: b}
		mbs[i] = k.mailboxAt(k.NewMailbox())
	}
	var comms [3]*Comm
	cycle := func() {
		for i := range send {
			k.post(send[i], mbs[i], float64(i+1)*1e6, true)
		}
		for i := range recv {
			comms[i] = k.postRecv(recv[i], mbs[i])
		}
		for ev := k.queue.Pop(); ev != nil; ev = k.queue.Pop() {
			k.now = ev.Time
			k.handleEvent(ev)
			k.queue.Recycle(ev)
		}
		for _, c := range comms {
			if !c.done {
				t.Fatal("memoized cycle did not complete every receive")
			}
			k.freeComm(c)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	hits := k.MemoHits()
	const runs = 500
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("memoized reshare cycle allocates %.2f allocs/op, want 0", avg)
	}
	if got := k.MemoHits() - hits; got < runs {
		t.Fatalf("%d memo hits over %d warm cycles, want one per cycle", got, runs)
	}
}

// FuzzSolveMemo builds a random small platform of shared and fatpipe links
// with routes that share links, then solves a random sequence of ordered
// flow sets, many of them repeats, through a full-size memo and through one
// shrunk to a single set and a few dozen arena words. Every allocation must
// equal a fresh solver's bit for bit. Between flow sets the links may be
// rescaled, which resets the memos the way DegradeAllLinksAt does.
func FuzzSolveMemo(f *testing.F) {
	f.Add([]byte{3, 10, 200, 31, 7, 1, 2, 0, 6, 5, 4, 3, 9, 1, 2, 0, 3, 1, 2, 0, 3, 255, 9, 1, 2, 0, 3})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte{1, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		nt := &memoNet{}
		nLinks := 1 + next()%6
		for i := 0; i < nLinks; i++ {
			b := next()
			l := &Link{Name: fmt.Sprintf("l%d", i), Bandwidth: float64(1+b%31) * 1e7}
			if b&0x80 != 0 {
				l.Sharing = SharingFatpipe
			}
			nt.links = append(nt.links, l)
		}
		nRoutes := 1 + next()%8
		for i := 0; i < nRoutes; i++ {
			// Up to three distinct links, shared across routes; a route may
			// even be empty (the solver's unconstrained fallback).
			var links []*Link
			for j, spec := 0, next(); j < spec%4 && j < nLinks; j++ {
				links = append(links, nt.links[(spec/4+j)%nLinks])
			}
			nt.routes = append(nt.routes, &Route{Links: links, id: int32(i + 1)})
		}
		memos := []*solveMemo{{}, {sets: 1, arenaCap: 8 + next()%48}}
		var seen [][]int
		for step := 0; pos < len(data) && step < 64; step++ {
			op := next()
			switch {
			case op%8 == 7:
				factor := 0.25 + float64(next()%16)/8
				for _, l := range nt.links {
					l.Bandwidth *= factor
				}
				for _, m := range memos {
					m.reset()
				}
				continue
			case op%8 < 4 && len(seen) > 0:
				idx := seen[(op/8)%len(seen)]
				checkMemoSolve(t, nt, memos, idx, fmt.Sprintf("step %d (repeat)", step))
				continue
			}
			idx := make([]int, 1+next()%12)
			for i := range idx {
				idx[i] = next() % nRoutes
			}
			seen = append(seen, idx)
			checkMemoSolve(t, nt, memos, idx, fmt.Sprintf("step %d", step))
		}
	})
}
