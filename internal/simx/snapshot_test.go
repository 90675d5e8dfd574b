package simx

import (
	"fmt"
	"testing"
)

// The quiescence/fork tests drive a miniature replay: ranks execute op lists
// over a clique platform whose inter-host routes all cross one shared
// backbone link (maximal contention), sends are detached (fire-and-forget)
// and receives block — matched generation below keeps per-pair counts equal,
// so a full run can never deadlock.

type forkOp struct {
	kind byte // 'c' compute, 's' detached send, 'r' recv
	vol  float64
	peer int
}

func forkPlatform(n int) *Kernel {
	k := New()
	bb := k.AddLink("bb", 1e8, 1e-4)
	for i := 0; i < n; i++ {
		// Distinct speeds de-tie completion instants across hosts.
		k.AddHost(fmt.Sprintf("h%d", i), 1e9*(1+0.1*float64(i)), 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				k.AddRoute(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j), []*Link{bb})
			}
		}
	}
	return k
}

// forkMailboxes allocates an n-rank program's pair mailboxes up front, in a
// fixed order, so every kernel running the program (the straight run, the
// donor and the member) numbers them alike: mb[src][dst] carries src's
// messages to dst.
func forkMailboxes(k *Kernel, n int) [][]MailboxID {
	mb := make([][]MailboxID, n)
	for src := range mb {
		mb[src] = make([]MailboxID, n)
		for dst := range mb[src] {
			mb[src][dst] = k.NewMailbox()
		}
	}
	return mb
}

func runForkOps(p *Proc, rank int, ops []forkOp, mb [][]MailboxID) {
	for _, op := range ops {
		switch op.kind {
		case 'c':
			p.Execute(op.vol)
		case 's':
			p.ISendDetached(mb[rank][op.peer], op.vol)
		case 'r':
			p.Recv(mb[op.peer][rank])
		}
	}
}

type forkRec struct {
	comm       bool
	a, b       string // proc/host for computes, src/dst procs for comms
	vol        float64
	start, end float64
}

type forkTracer struct{ recs []forkRec }

func (t *forkTracer) Compute(proc, host string, flops, start, end float64) {
	t.recs = append(t.recs, forkRec{false, proc, host, flops, start, end})
}

func (t *forkTracer) Comm(src, dst string, bytes, start, end float64) {
	t.recs = append(t.recs, forkRec{true, src, dst, bytes, start, end})
}

func runForkFull(ops [][]forkOp) (float64, []forkRec, error) {
	k := forkPlatform(len(ops))
	mb := forkMailboxes(k, len(ops))
	tr := &forkTracer{}
	k.SetTracer(tr)
	for r := range ops {
		r := r
		k.Spawn(fmt.Sprintf("p%d", r), k.Host(fmt.Sprintf("h%d", r)), func(p *Proc) {
			runForkOps(p, r, ops[r], mb)
		})
	}
	_, err := k.Run()
	return k.Now(), tr.recs, err
}

// procHost maps the harness's "p<r>" process names back to "h<r>" hosts.
func procHost(proc string) string { return "h" + proc[1:] }

// runForkForked replays ops with a donor prefix run, a quiescence check, and
// a suffix run resumed on a fresh kernel, mirroring the production fork path
// including its post-hoc safety check. forkable is false when the cut is not
// shareable (donor failed to quiesce, a suffix activity overlapped donor
// resource usage, or an exact cross-side completion tie made the merge
// ambiguous) — production falls back to a from-scratch run in those cases.
func runForkForked(ops [][]forkOp, cuts []int) (makespan float64, merged []forkRec, forkable bool, err error) {
	n := len(ops)
	k := forkPlatform(n)
	mb := forkMailboxes(k, n)
	donor := &forkTracer{}
	k.SetTracer(donor)
	park := make([]float64, n)
	var order []int
	for r := range ops {
		r := r
		k.Spawn(fmt.Sprintf("p%d", r), k.Host(fmt.Sprintf("h%d", r)), func(p *Proc) {
			runForkOps(p, r, ops[r][:cuts[r]], mb)
			park[r] = p.Now()
			order = append(order, r) // cooperative scheduling: no data race
		})
	}
	if _, err := k.Run(); err != nil {
		return 0, nil, false, nil // unbalanced prefix deadlocked the donor
	}
	if k.Quiescent() != nil {
		return 0, nil, false, nil // prefix left rendezvous state behind
	}
	// Horizons over the production numbering: hosts by ID, then the route
	// walk's link indices (declared links, then loopbacks).
	nh := int32(k.Hosts())
	lastEnd := make([]float64, 2*k.Hosts()+k.Links())
	donorEnds := map[float64]bool{}
	use := func(rec forkRec, ids []int32) []int32 {
		if !rec.comm {
			return append(ids[:0], int32(k.Host(rec.b).ID()))
		}
		ids = k.AppendRouteLinks(k.Host(procHost(rec.a)), k.Host(procHost(rec.b)), ids[:0])
		for i := range ids {
			ids[i] += nh
		}
		return ids
	}
	var scratch []int32
	for _, rec := range donor.recs {
		donorEnds[rec.end] = true
		for _, res := range use(rec, scratch) {
			if rec.end > lastEnd[res] {
				lastEnd[res] = rec.end
			}
		}
	}
	fk := forkPlatform(n)
	fmb := forkMailboxes(fk, n)
	fork := &forkTracer{}
	fk.SetTracer(fork)
	for _, r := range order {
		r := r
		fk.Spawn(fmt.Sprintf("p%d", r), fk.Host(fmt.Sprintf("h%d", r)), func(p *Proc) {
			p.SleepUntil(park[r])
			runForkOps(p, r, ops[r][cuts[r]:], fmb)
		})
	}
	if _, err := fk.Run(); err != nil {
		return 0, nil, false, fmt.Errorf("forked run: %w", err)
	}
	for _, rec := range fork.recs {
		if donorEnds[rec.end] {
			return 0, nil, false, nil // ambiguous cross-side completion tie
		}
		for _, res := range use(rec, scratch) {
			if rec.start < lastEnd[res] {
				return 0, nil, false, nil // suffix overlapped donor usage
			}
		}
	}
	// Two-way merge by completion time; both streams are emitted in
	// nondecreasing end order and cross-side ties were rejected above.
	di, fi := 0, 0
	for di < len(donor.recs) || fi < len(fork.recs) {
		if fi == len(fork.recs) || (di < len(donor.recs) && donor.recs[di].end < fork.recs[fi].end) {
			merged = append(merged, donor.recs[di])
			di++
		} else {
			merged = append(merged, fork.recs[fi])
			fi++
		}
	}
	return fk.Now(), merged, true, nil
}

// forkWorkload decodes a byte string into a matched multi-rank program plus
// per-rank cut positions — the fuzz input shape.
func forkWorkload(data []byte) (ops [][]forkOp, cuts []int, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := 2 + int(data[0])%3
	ops = make([][]forkOp, n)
	body := data[1:]
	if len(body) > 240 {
		body = body[:240]
	}
	for i := 0; i+1 < len(body); i += 2 {
		a, b := body[i], body[i+1]
		rank := int(a) % n
		switch b % 3 {
		case 0:
			vol := 1e6 * float64(1+int(b>>2)%13) * (1 + 0.05*float64(rank))
			ops[rank] = append(ops[rank], forkOp{kind: 'c', vol: vol})
		case 1:
			peer := (rank + 1 + int(b>>2)%(n-1)) % n
			vol := 1e4 * float64(1+int(b>>3)%7)
			ops[rank] = append(ops[rank], forkOp{kind: 's', vol: vol, peer: peer})
			ops[peer] = append(ops[peer], forkOp{kind: 'r', peer: rank})
		default:
			vol := 3e5 * float64(1+int(b>>2)%5) * (1 + 0.07*float64(rank))
			ops[rank] = append(ops[rank], forkOp{kind: 'c', vol: vol})
		}
	}
	cuts = make([]int, n)
	total := 0
	for r := range ops {
		cuts[r] = int(data[(r+1)%len(data)]) % (len(ops[r]) + 1)
		total += len(ops[r])
	}
	return ops, cuts, total > 0
}

// checkForkEquivalence is the shared oracle: a forkable cut must reproduce
// the straight run bit-for-bit — same makespan, same traced activities in
// the same order.
func checkForkEquivalence(t *testing.T, ops [][]forkOp, cuts []int) (forkable bool) {
	t.Helper()
	wantM, wantRecs, err := runForkFull(ops)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	gotM, gotRecs, forkable, err := runForkForked(ops, cuts)
	if err != nil {
		t.Fatalf("forked run: %v", err)
	}
	if !forkable {
		return false
	}
	if gotM != wantM {
		t.Fatalf("forked makespan %v, full run %v (cuts %v)", gotM, wantM, cuts)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("forked run traced %d activities, full run %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("record %d diverged:\nforked %+v\nfull   %+v", i, gotRecs[i], wantRecs[i])
		}
	}
	return true
}

func TestKernelForkMatchesFullRun(t *testing.T) {
	// Compute prefix, communicating suffix: the canonical shareable shape.
	ops := [][]forkOp{
		{{kind: 'c', vol: 5e8}, {kind: 's', vol: 1e6, peer: 1}, {kind: 'r', peer: 2}},
		{{kind: 'c', vol: 8e8}, {kind: 'r', peer: 0}, {kind: 's', vol: 2e6, peer: 2}},
		{{kind: 'c', vol: 3e8}, {kind: 's', vol: 4e5, peer: 0}, {kind: 'r', peer: 1}},
	}
	if !checkForkEquivalence(t, ops, []int{1, 1, 1}) {
		t.Fatal("compute-only prefix must be forkable")
	}
	// Balanced communicating prefix is shareable too.
	ops2 := [][]forkOp{
		{{kind: 'c', vol: 2e8}, {kind: 's', vol: 1e6, peer: 1}, {kind: 'c', vol: 6e8}},
		{{kind: 'r', peer: 0}, {kind: 'c', vol: 4e8}, {kind: 'c', vol: 2e8}},
	}
	if !checkForkEquivalence(t, ops2, []int{2, 1}) {
		t.Fatal("balanced comm prefix must be forkable")
	}
	// Full-length cuts: the fork replays nothing and inherits the makespan.
	if !checkForkEquivalence(t, ops2, []int{3, 3}) {
		t.Fatal("full-length cut must be forkable")
	}
	// Zero cuts: the fork replays everything on its fresh kernel.
	if !checkForkEquivalence(t, ops2, []int{0, 0}) {
		t.Fatal("zero cut must be forkable")
	}
}

func TestKernelForkUnbalancedPrefixFallsBack(t *testing.T) {
	// The send sits before rank 0's cut but the matching recv after rank
	// 1's: the donor must refuse to quiesce rather than hand out a corrupt
	// prefix.
	ops := [][]forkOp{
		{{kind: 's', vol: 1e6, peer: 1}, {kind: 'c', vol: 2e8}},
		{{kind: 'c', vol: 2e8}, {kind: 'r', peer: 0}},
	}
	_, _, forkable, err := runForkForked(ops, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if forkable {
		t.Fatal("unbalanced prefix must not be forkable")
	}
}

func TestSnapshotRefusesBusyKernel(t *testing.T) {
	k := forkPlatform(2)
	k.Spawn("p0", k.Host("h0"), func(p *Proc) { p.Execute(1e9) })
	if err := k.Quiescent(); err == nil {
		t.Fatal("a kernel with live processes must not be quiescent")
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Quiescent(); err != nil {
		t.Fatalf("kernel not quiescent after its run: %v", err)
	}
}

// FuzzKernelFork cross-checks prefix→quiesce→resume against a straight run
// on random matched programs and random cuts: whenever the cut is shareable,
// the forked replay must be bit-identical.
func FuzzKernelFork(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 4, 200, 33, 17, 88, 5, 61, 7})
	f.Add([]byte{1, 8, 1, 3, 12, 40, 2, 1, 77, 13, 21, 64, 90, 6})
	f.Add([]byte{2, 3, 3, 3, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{200, 250, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, cuts, ok := forkWorkload(data)
		if !ok {
			return
		}
		checkForkEquivalence(t, ops, cuts)
	})
}

// TestSnapshotQuiescenceRefusals: non-quiescent states that survive a
// completed Run must still be refused — a fork from any of them could not
// be equivalent to a from-scratch replay — while pending fault timers alone
// are not a refusal.
func TestSnapshotQuiescenceRefusals(t *testing.T) {
	t.Run("pending-rendezvous", func(t *testing.T) {
		k := forkPlatform(2)
		mb := k.NewMailbox()
		k.Spawn("p0", k.Host("h0"), func(p *Proc) {
			p.ISendDetached(mb, 10) // never received
		})
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := k.Quiescent(); err == nil {
			t.Fatal("a queued unmatched send must not be quiescent")
		}
	})
	t.Run("fail-stopped-host", func(t *testing.T) {
		k := forkPlatform(2)
		k.FailHostAt("h1", 1e-3)
		k.Spawn("p0", k.Host("h0"), func(p *Proc) { p.Execute(1e7) })
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := k.Quiescent(); err == nil {
			t.Fatal("a fail-stopped host must not be quiescent")
		}
	})
	t.Run("fail-stopped-link", func(t *testing.T) {
		k := forkPlatform(2)
		k.FailRouteAt("h0", "h1", 1e-3)
		k.Spawn("p0", k.Host("h0"), func(p *Proc) { p.Execute(1e7) })
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if err := k.Quiescent(); err == nil {
			t.Fatal("a fail-stopped link must not be quiescent")
		}
	})
	t.Run("pending-fault-timers", func(t *testing.T) {
		k := forkPlatform(2)
		h := k.Host("h0")
		base := h.Speed
		// A degradation window still open when the kernel quiesces: Speed
		// is scaled and the closing timer is the only pending event.
		k.DegradeAllHostsAt(0.5, 1.0, 100.0)
		k.Spawn("p0", h, func(p *Proc) { p.Sleep(2.0) })
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if h.Speed == base {
			t.Fatal("degradation window did not scale the host")
		}
		if err := k.Quiescent(); err != nil {
			t.Fatalf("only fault timers pending, yet not quiescent: %v", err)
		}
	})
}
