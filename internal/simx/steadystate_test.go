package simx

import "testing"

// TestPostMatchCompleteZeroAllocs drives the full rendezvous cycle — post a
// detached send, post the matching receive, fire the latency and transfer
// events — directly against the kernel internals and asserts the steady
// state allocates nothing: comm handles, activities and queue events all
// come from and return to their pools, the mailbox FIFOs rewind their
// backing arrays, and the rate-epoch lazy path leaves settled events alone.
func TestPostMatchCompleteZeroAllocs(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	// Two unspawned process shells on one host: the transfer rides the
	// host-private loopback route, no scheduler involved.
	sp := &Proc{k: k, name: "s", host: h}
	rp := &Proc{k: k, name: "r", host: h}
	mb := k.mailboxAt(k.NewMailbox())

	cycle := func() {
		k.post(sp, mb, 4096, true)
		rc := k.postRecv(rp, mb)
		for ev := k.queue.Pop(); ev != nil; ev = k.queue.Pop() {
			k.now = ev.Time
			k.handleEvent(ev)
			k.queue.Recycle(ev)
		}
		if !rc.done {
			t.Fatal("cycle did not complete the receive")
		}
		k.freeComm(rc)
	}
	// Warm the pools: first cycles grow the free lists and scratch slices.
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("post/match/complete cycle allocates %.2f allocs/op, want 0", avg)
	}
}

// TestContendedReshareZeroAllocs covers the contended variant: two flows on
// a shared link, so every transition re-solves a two-flow component and the
// completion events are rescheduled (or lazily skipped) — still without a
// single allocation in steady state.
func TestContendedReshareZeroAllocs(t *testing.T) {
	k := New()
	a := k.AddHost("a", 1e9, 1)
	b := k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1.25e8, 1e-6)
	k.AddRoute("a", "b", []*Link{l})
	s1 := &Proc{k: k, name: "s1", host: a}
	s2 := &Proc{k: k, name: "s2", host: a}
	r1 := &Proc{k: k, name: "r1", host: b}
	r2 := &Proc{k: k, name: "r2", host: b}
	m1 := k.mailboxAt(k.NewMailbox())
	m2 := k.mailboxAt(k.NewMailbox())

	cycle := func() {
		k.post(s1, m1, 1e6, true)
		k.post(s2, m2, 2e6, true)
		c1 := k.postRecv(r1, m1)
		c2 := k.postRecv(r2, m2)
		for ev := k.queue.Pop(); ev != nil; ev = k.queue.Pop() {
			k.now = ev.Time
			k.handleEvent(ev)
			k.queue.Recycle(ev)
		}
		if !c1.done || !c2.done {
			t.Fatal("contended cycle did not complete both receives")
		}
		k.freeComm(c1)
		k.freeComm(c2)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("contended reshare cycle allocates %.2f allocs/op, want 0", avg)
	}
}
