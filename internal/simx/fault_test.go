package simx

import (
	"math"
	"testing"
)

// recordFailure returns a deferred-recover helper storing the fail-stop error
// that killed the process (if any) in *out, re-raising any other panic.
func recordFailure(out **FailedError) func() {
	return func() {
		r := recover()
		if r == nil {
			return
		}
		if fe := FailureOf(r); fe != nil {
			*out = fe
			return
		}
		panic(r)
	}
}

func TestFailHostKillsRunningCompute(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	var fe *FailedError
	finished := false
	k.Spawn("p", h, func(p *Proc) {
		defer recordFailure(&fe)()
		p.Execute(10e9) // 10 s of work
		finished = true
	})
	k.FailHostAt("h", 2.0)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if finished {
		t.Fatal("compute survived its host's fail-stop")
	}
	if fe == nil {
		t.Fatal("process body did not observe the failure")
	}
	if fe.Kind != "host" || fe.Name != "h" || !close(fe.Time, 2.0) {
		t.Fatalf("failure = %+v, want host h at t=2", fe)
	}
	if !close(end, 2.0) {
		t.Fatalf("makespan = %g, want 2.0 (simulation ends at the fault)", end)
	}
	if !k.Host("h").Off() {
		t.Fatal("host not marked off")
	}
}

func TestFailHostKillsTransferAndNotifiesPeer(t *testing.T) {
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	var senderErr, recvErr *FailedError
	k.Spawn("sender", a, func(p *Proc) {
		defer recordFailure(&senderErr)()
		p.Send(mb, 1e9) // 10 s transfer at 1e8 B/s
	})
	k.Spawn("recv", b, func(p *Proc) {
		defer recordFailure(&recvErr)()
		p.Recv(mb)
	})
	k.FailHostAt("b", 3.0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr == nil || recvErr.Kind != "host" || recvErr.Name != "b" {
		t.Fatalf("dead-host receiver error = %+v, want its own host failure", recvErr)
	}
	if senderErr == nil {
		t.Fatal("surviving sender did not observe the peer's death")
	}
	if senderErr.Kind != "host" || senderErr.Name != "b" || !close(senderErr.Time, 3.0) {
		t.Fatalf("sender failure = %+v, want host b at t=3", senderErr)
	}
	_ = a
}

func TestFailHostWakesProcBlockedOnUnmatchedRecv(t *testing.T) {
	// The receiver is blocked waiting for a match (no activity exists): the
	// fail-stop must wake it directly into the kill signal, or the
	// simulation would deadlock on a dead process.
	k, _, b := twoHostKernel()
	never := k.NewMailbox()
	var fe *FailedError
	k.Spawn("recv", b, func(p *Proc) {
		defer recordFailure(&fe)()
		p.Recv(never)
	})
	k.FailHostAt("b", 1.0)
	end, err := k.Run()
	if err != nil {
		t.Fatalf("unexpected error (deadlock?): %v", err)
	}
	if fe == nil || fe.Name != "b" {
		t.Fatalf("failure = %+v, want host b", fe)
	}
	if !close(end, 1.0) {
		t.Fatalf("makespan = %g, want 1.0", end)
	}
}

func TestSendToDeadHostFailsAtMatch(t *testing.T) {
	// The receiver's host dies before the send is posted: the queued recv
	// handle is matched lazily and the rendezvous fails instead of starting.
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	var senderErr, recvErr *FailedError
	k.Spawn("recv", b, func(p *Proc) {
		defer recordFailure(&recvErr)()
		p.Recv(mb)
	})
	k.Spawn("sender", a, func(p *Proc) {
		defer recordFailure(&senderErr)()
		p.Sleep(2.0) // post after b is gone
		p.Send(mb, 1e6)
	})
	k.FailHostAt("b", 1.0)
	if _, err := k.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if recvErr == nil || recvErr.Name != "b" {
		t.Fatalf("receiver failure = %+v, want host b", recvErr)
	}
	if senderErr == nil {
		t.Fatal("sender matched a dead receiver without failing")
	}
	if senderErr.Kind != "host" || senderErr.Name != "b" || !close(senderErr.Time, 2.0) {
		t.Fatalf("sender failure = %+v, want host b observed at t=2", senderErr)
	}
}

func TestOperationsOnDeadHostFailImmediately(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	var fe *FailedError
	steps := 0
	k.Spawn("p", h, func(p *Proc) {
		defer recordFailure(&fe)()
		p.Sleep(2.0)
		steps++
		p.Execute(1e9) // host died at t=1: must not run
		steps++
	})
	k.FailHostAt("h", 1.0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fe == nil || steps != 0 {
		t.Fatalf("failure = %+v after %d steps, want kill at first wake with 0 steps", fe, steps)
	}
}

func TestFailRouteKillsCrossingFlowAndFailsLaterMatches(t *testing.T) {
	k, a, b := twoHostKernel()
	mb, mb2 := k.NewMailbox(), k.NewMailbox()
	var firstErr, lateErr *FailedError
	k.Spawn("sender", a, func(p *Proc) {
		defer recordFailure(&firstErr)()
		p.Send(mb, 1e9) // 10 s transfer, killed at t=3
	})
	k.Spawn("recv", b, func(p *Proc) {
		// The receive side of the killed transfer also unwinds.
		defer recordFailure(new(*FailedError))()
		p.Recv(mb)
	})
	k.Spawn("late-send", a, func(p *Proc) {
		defer recordFailure(&lateErr)()
		p.Sleep(5.0)
		p.Send(mb2, 1e6)
	})
	k.Spawn("late-recv", b, func(p *Proc) {
		defer recordFailure(new(*FailedError))()
		p.Sleep(5.0)
		p.Recv(mb2)
	})
	k.FailRouteAt("a", "b", 3.0)
	if _, err := k.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if firstErr == nil || firstErr.Kind != "link" || !close(firstErr.Time, 3.0) {
		t.Fatalf("in-flight sender failure = %+v, want link kill at t=3", firstErr)
	}
	if lateErr == nil || lateErr.Kind != "link" || lateErr.Name != "ab" {
		t.Fatalf("post-failure sender failure = %+v, want link ab at match", lateErr)
	}
	if !k.Link("ab").Off() {
		t.Fatal("link not marked off")
	}
}

func TestDegradeHostWindow(t *testing.T) {
	// 1 Gflop/s host, 4 Gflop of work. Degraded to half speed over [1, 3):
	// 1 s at full (1 Gflop) + 2 s at half (1 Gflop) + 2 s at full (2 Gflop)
	// = 4 Gflop done at t=5.
	k := New()
	k.AddHost("h", 1e9, 1)
	k.Spawn("p", k.Host("h"), func(p *Proc) {
		p.Execute(4e9)
	})
	k.DegradeAllHostsAt(0.5, 1.0, 3.0)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 5.0) {
		t.Fatalf("makespan = %g, want 5.0", end)
	}
	if got := k.Host("h").Speed; got != 1e9 {
		t.Fatalf("host speed after window = %g, want bit-exact 1e9", got)
	}
}

func TestDegradeLinkWindow(t *testing.T) {
	// 1e8 B/s link, 4e8 B transfer (latency 1 ms). Degraded to half
	// bandwidth over [1, 3): 1 s full (1e8 B) + 2 s half (1e8 B) + 2 s full
	// (2e8 B) = 4e8 B done at t = 5 + latency.
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	k.Spawn("sender", a, func(p *Proc) {
		p.Send(mb, 4e8)
	})
	k.Spawn("recv", b, func(p *Proc) {
		p.Recv(mb)
	})
	k.DegradeAllLinksAt(0.5, 1.0+1e-3, 3.0+1e-3)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 5.0+1e-3) {
		t.Fatalf("makespan = %g, want 5.001", end)
	}
	if got := k.Link("ab").Bandwidth; got != 1e8 {
		t.Fatalf("link bandwidth after window = %g, want bit-exact 1e8", got)
	}
}

func TestDegradeAllHostsWindow(t *testing.T) {
	k, a, b := twoHostKernel()
	for _, h := range []*Host{a, b} {
		k.Spawn("p", h, func(p *Proc) { p.Execute(4e9) })
	}
	k.DegradeAllHostsAt(0.5, 1.0, 3.0)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 5.0) {
		t.Fatalf("makespan = %g, want 5.0 on both hosts", end)
	}
	if a.Speed != 1e9 || b.Speed != 1e9 {
		t.Fatalf("speeds after window = %g, %g, want bit-exact 1e9", a.Speed, b.Speed)
	}
}

func TestFaultAfterSimulationEndDoesNotExtendMakespan(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	k.Spawn("p", h, func(p *Proc) {
		p.Execute(1e9) // done at t=1
	})
	k.FailHostAt("h", 100.0)
	k.DegradeAllHostsAt(0.5, 200.0, 300.0)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 1.0) {
		t.Fatalf("makespan = %g, want 1.0 (pending fault timers must not advance the clock)", end)
	}
}

func TestFailHostIsIdempotent(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	var fe *FailedError
	k.Spawn("p", h, func(p *Proc) {
		defer recordFailure(&fe)()
		p.Execute(10e9)
	})
	k.FailHostAt("h", 2.0)
	k.FailHostAt("h", 2.5) // second fail-stop of a dead host: no-op
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fe == nil || !close(fe.Time, 2.0) {
		t.Fatalf("failure = %+v, want the first fail-stop at t=2", fe)
	}
}

func TestWaitCommOnKilledISend(t *testing.T) {
	// The handle of an in-flight ISend outlives the kill: waiting on it later
	// raises the recorded failure.
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	var fe *FailedError
	var failedComm *FailedError
	k.Spawn("sender", a, func(p *Proc) {
		defer recordFailure(&fe)()
		c := p.ISend(mb, 1e9)
		p.Sleep(5.0) // transfer killed at t=3 while we sleep
		failedComm = c.Failed()
		p.WaitComm(c)
	})
	k.Spawn("recv", b, func(p *Proc) {
		defer recordFailure(new(*FailedError))()
		p.Recv(mb)
	})
	k.FailHostAt("b", 3.0)
	if _, err := k.Run(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if failedComm == nil || failedComm.Name != "b" {
		t.Fatalf("Comm.Failed() = %+v, want host b failure recorded on the handle", failedComm)
	}
	if fe == nil || fe.Name != "b" {
		t.Fatalf("WaitComm on killed comm: failure = %+v, want host b", fe)
	}
}

func TestFailSpareHostLeavesOthersUntouched(t *testing.T) {
	// Killing an idle bystander must not perturb the survivors' timing.
	base := func(fail bool) float64 {
		k := New()
		k.AddHost("a", 1e9, 1)
		k.AddHost("spare", 1e9, 1)
		k.Spawn("p", k.Host("a"), func(p *Proc) { p.Execute(4e9) })
		if fail {
			k.FailHostAt("spare", 1.0)
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if w, f := base(false), base(true); w != f {
		t.Fatalf("bystander fail-stop changed makespan: %g != %g", f, w)
	}
}

func TestFaultedRunIsDeterministic(t *testing.T) {
	// Same platform, same faults: bit-identical makespan and failure times
	// across repeated runs.
	run := func() (float64, []float64) {
		k, a, b := twoHostKernel()
		mb := k.NewMailbox()
		var times []float64
		for i := 0; i < 3; i++ {
			k.Spawn("s", a, func(p *Proc) {
				defer func() {
					if fe := FailureOf(recover()); fe != nil {
						times = append(times, fe.Time)
					}
				}()
				p.Send(mb, 5e8)
				p.Send(mb, 5e8)
			})
			k.Spawn("r", b, func(p *Proc) {
				defer func() {
					if fe := FailureOf(recover()); fe != nil {
						times = append(times, fe.Time)
					}
				}()
				p.Recv(mb)
				p.Recv(mb)
			})
		}
		k.FailHostAt("b", 4.0)
		k.DegradeAllLinksAt(0.25, 1.0, 2.0)
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end, times
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 {
		t.Fatalf("makespans differ across identical faulted runs: %v != %v", e1, e2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("failure counts differ: %d != %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("failure time %d differs: %v != %v", i, t1[i], t2[i])
		}
	}
	if len(t1) != 6 {
		t.Fatalf("got %d failures, want all 6 procs killed", len(t1))
	}
}

func TestZeroFaultPathStaysInert(t *testing.T) {
	// No fault scheduled: the rendezvous fast path must never take the
	// failure branch (faultsActive stays false).
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	k.Spawn("s", a, func(p *Proc) { p.Send(mb, 1e6) })
	k.Spawn("r", b, func(p *Proc) { p.Recv(mb) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.faultsActive {
		t.Fatal("faultsActive set without any scheduled fault")
	}
	if k.pendingTimers != 0 {
		t.Fatalf("pendingTimers = %d, want 0", k.pendingTimers)
	}
}

func TestFailedErrorMessage(t *testing.T) {
	e := &FailedError{Kind: "host", Name: "n3", Time: 1.5}
	want := "simx: host n3 failed at t=1.5"
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
	if FailureOf(nil) != nil || FailureOf("boom") != nil {
		t.Fatal("FailureOf must return nil for non-kill panics")
	}
}

func TestDegradeWindowRestoresExactSpeedAfterConcurrency(t *testing.T) {
	// Regression guard for the exact-restore design: the restore writes the
	// saved value, not prev/factor, so no FP drift ever accumulates.
	k := New()
	h := k.AddHost("h", 3.3e9, 2)
	k.Spawn("p", h, func(p *Proc) { p.Execute(20e9) })
	k.Spawn("q", h, func(p *Proc) { p.Execute(20e9) })
	k.DegradeAllHostsAt(1.0/3.0, 0.5, 1.5)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Speed != 3.3e9 {
		t.Fatalf("restored speed %v != original 3.3e9 (bit-exact)", h.Speed)
	}
	if math.Signbit(h.Speed) {
		t.Fatal("sign corrupted")
	}
}
