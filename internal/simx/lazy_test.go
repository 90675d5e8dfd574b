package simx

import "testing"

// pumpOne fires the next queued event against the kernel, test-side.
func pumpOne(t *testing.T, k *Kernel) {
	t.Helper()
	ev := k.queue.Pop()
	if ev == nil {
		t.Fatal("event queue drained early")
	}
	k.now = ev.Time
	k.handleEvent(ev)
	k.queue.Recycle(ev)
}

// TestRateEpochStamping drives the lazy path white-box: a co-solved flow
// whose share comes out unchanged keeps its completion event in place and
// LazySkips counts it, while a flow whose share moves is rescheduled.
func TestRateEpochStamping(t *testing.T) {
	// Scenario A: the shared link is never binding for the long flow (its
	// private uplink is), so the short flow joining and leaving re-solves
	// the long flow without changing its rate: event left alone, skip
	// counted.
	k := New()
	ha := k.AddHost("a", 1e9, 1)
	hb := k.AddHost("b", 1e9, 1)
	hc := k.AddHost("c", 1e9, 1)
	up := k.AddLink("up", 1e8, 1e-6)
	shared := k.AddLink("shared", 10e9, 1e-6)
	k.AddRoute("a", "b", []*Link{up, shared})
	k.AddRoute("c", "b", []*Link{shared})
	pa := &Proc{k: k, name: "pa", host: ha}
	pb := &Proc{k: k, name: "pb", host: hb}
	pc := &Proc{k: k, name: "pc", host: hc}
	m1 := k.mailboxAt(k.NewMailbox())
	m2 := k.mailboxAt(k.NewMailbox())
	k.post(pa, m1, 1e9, true) // long flow, bottlenecked on up
	k.postRecv(pb, m1)
	k.post(pc, m2, 1e6, true) // short flow, ample shared bandwidth
	rc := k.postRecv(pb, m2)
	pumpOne(t, k) // latency paid: first flow joins
	pumpOne(t, k) // second flow joins, component co-solved
	if len(k.flows) != 2 {
		t.Fatalf("%d flows in transfer, want 2", len(k.flows))
	}
	var long *activity
	for _, f := range k.flows {
		if len(f.links) == 2 {
			long = f
		}
	}
	if long == nil {
		t.Fatal("long flow not found")
	}
	ev, at, skips := long.doneEv, long.doneEv.Time, k.LazySkips()
	pumpOne(t, k) // short flow completes; component re-solved
	if !rc.done {
		t.Fatal("short flow did not complete first")
	}
	if long.doneEv != ev || long.doneEv.Time != at {
		t.Fatalf("long flow rate unchanged but its completion event moved from %v", at)
	}
	if k.LazySkips() != skips+1 {
		t.Fatalf("lazy skips %d -> %d, want one elided reschedule", skips, k.LazySkips())
	}

	// Scenario B: both flows contend on one binding link, so the join and
	// the leave each change the surviving flow's rate and must move its
	// completion event, skipping nothing.
	k2 := New()
	ha2 := k2.AddHost("a", 1e9, 1)
	hb2 := k2.AddHost("b", 1e9, 1)
	hc2 := k2.AddHost("c", 1e9, 1)
	bottleneck := k2.AddLink("l", 1e8, 1e-6)
	k2.AddRoute("a", "b", []*Link{bottleneck})
	k2.AddRoute("c", "b", []*Link{bottleneck})
	pa2 := &Proc{k: k2, name: "pa", host: ha2}
	pb2 := &Proc{k: k2, name: "pb", host: hb2}
	pc2 := &Proc{k: k2, name: "pc", host: hc2}
	n1 := k2.mailboxAt(k2.NewMailbox())
	n2 := k2.mailboxAt(k2.NewMailbox())
	k2.post(pa2, n1, 1e9, true)
	k2.postRecv(pb2, n1)
	pumpOne(t, k2) // long flow joins alone at full bandwidth
	long2 := k2.flows[0]
	joinAt := long2.doneEv.Time
	k2.post(pc2, n2, 1e6, true)
	rc2 := k2.postRecv(pb2, n2)
	pumpOne(t, k2) // short flow joins: share halves, completion moves later
	halvedAt := long2.doneEv.Time
	if halvedAt <= joinAt {
		t.Fatalf("share halved but completion did not move later (%v -> %v)", joinAt, halvedAt)
	}
	pumpOne(t, k2) // short flow completes: share restored, completion earlier
	if !rc2.done {
		t.Fatal("short flow did not complete")
	}
	if long2.doneEv.Time >= halvedAt {
		t.Fatalf("share restored but completion did not move earlier (%v -> %v)", halvedAt, long2.doneEv.Time)
	}
	if k2.LazySkips() != 0 {
		t.Fatalf("every rate moved, yet %d reschedules were skipped", k2.LazySkips())
	}
}
