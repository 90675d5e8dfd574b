package simx

import (
	"math"
	"testing"
)

const eps = 1e-9

func close(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

// twoHostKernel builds the standard two-node test platform: 1 Gflop/s
// single-core hosts joined by a symmetric 1e8 B/s, 1 ms link.
func twoHostKernel() (*Kernel, *Host, *Host) {
	k := New()
	a := k.AddHost("a", 1e9, 1)
	b := k.AddHost("b", 1e9, 1)
	l := k.AddLink("ab", 1e8, 1e-3)
	k.AddRoute("a", "b", []*Link{l})
	k.AddRoute("b", "a", []*Link{l})
	return k, a, b
}

func TestSingleComputeDuration(t *testing.T) {
	k := New()
	h := k.AddHost("h", 2e9, 1)
	k.Spawn("p", h, func(p *Proc) {
		p.Execute(4e9) // 4 Gflop at 2 Gflop/s = 2 s
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 2.0) {
		t.Fatalf("makespan = %g, want 2.0", end)
	}
}

func TestComputeFairSharingSingleCore(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	for i := 0; i < 2; i++ {
		k.Spawn("p", h, func(p *Proc) {
			p.Execute(1e9)
		})
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two 1 Gflop tasks sharing a 1 Gflop/s core: both finish at t=2.
	if !close(end, 2.0) {
		t.Fatalf("makespan = %g, want 2.0", end)
	}
}

func TestComputeMultiCoreNoContention(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 4)
	for i := 0; i < 4; i++ {
		k.Spawn("p", h, func(p *Proc) {
			p.Execute(1e9)
		})
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 1.0) {
		t.Fatalf("makespan = %g, want 1.0 (4 tasks on 4 cores)", end)
	}
}

func TestFoldingLinearSlowdown(t *testing.T) {
	// The mechanism behind Table 2: folding x processes on one core slows
	// execution down by ~x.
	for _, fold := range []int{2, 4, 8} {
		k := New()
		h := k.AddHost("h", 1e9, 1)
		for i := 0; i < fold; i++ {
			k.Spawn("p", h, func(p *Proc) {
				p.Execute(1e9)
			})
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !close(end, float64(fold)) {
			t.Fatalf("fold=%d: makespan = %g, want %d", fold, end, fold)
		}
	}
}

func TestStaggeredComputeSharing(t *testing.T) {
	// p1 computes alone for 1s, then shares with p2 (arriving at t=1).
	// p1: 2 Gflop total: 1 Gflop done alone, remaining 1 Gflop at half rate
	// = 2 s, finishing at t=3. p2: 1 Gflop at half rate until p1 leaves...
	k := New()
	h := k.AddHost("h", 1e9, 1)
	var end1, end2 float64
	k.Spawn("p1", h, func(p *Proc) {
		p.Execute(2e9)
		end1 = p.Now()
	})
	k.Spawn("p2", h, func(p *Proc) {
		p.Sleep(1.0)
		p.Execute(1e9)
		end2 = p.Now()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// From t=1 both share: p1 needs 1 Gflop, p2 needs 1 Gflop, both at
	// 0.5 Gflop/s -> both complete at t=3.
	if !close(end1, 3.0) || !close(end2, 3.0) {
		t.Fatalf("end1=%g end2=%g, want 3.0 both", end1, end2)
	}
}

func TestPointToPointCommDuration(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	ha, hb := k.Host("a"), k.Host("b")
	var recvEnd float64
	k.Spawn("sender", ha, func(p *Proc) {
		p.Send(mb, 1e8)
	})
	k.Spawn("receiver", hb, func(p *Proc) {
		if got := p.Recv(mb); got != 1e8 {
			t.Errorf("received size = %g, want 1e8", got)
		}
		recvEnd = p.Now()
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 1e8 bytes at 1e8 B/s + 1 ms latency = 1.001 s.
	if !close(end, 1.001) || !close(recvEnd, 1.001) {
		t.Fatalf("end = %g, recvEnd = %g, want 1.001", end, recvEnd)
	}
}

func TestRendezvousStartsAtMatchTime(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	ha, hb := k.Host("a"), k.Host("b")
	k.Spawn("sender", ha, func(p *Proc) {
		p.Send(mb, 1e8)
	})
	k.Spawn("receiver", hb, func(p *Proc) {
		p.Sleep(5)
		p.Recv(mb)
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Transfer cannot start before the receive is posted at t=5.
	if !close(end, 6.001) {
		t.Fatalf("end = %g, want 6.001", end)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	k := New()
	mb1, mb2 := k.NewMailbox(), k.NewMailbox()
	hosts := make([]*Host, 4)
	for i, n := range []string{"a", "b", "c", "d"} {
		hosts[i] = k.AddHost(n, 1e9, 1)
	}
	l := k.AddLink("shared", 1e8, 0)
	k.AddRoute("a", "b", []*Link{l})
	k.AddRoute("c", "d", []*Link{l})
	k.Spawn("s1", hosts[0], func(p *Proc) { p.Send(mb1, 1e8) })
	k.Spawn("r1", hosts[1], func(p *Proc) { p.Recv(mb1) })
	k.Spawn("s2", hosts[2], func(p *Proc) { p.Send(mb2, 1e8) })
	k.Spawn("r2", hosts[3], func(p *Proc) { p.Recv(mb2) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two 1e8-byte flows over one 1e8 B/s link: each at 5e7 B/s -> 2 s.
	if !close(end, 2.0) {
		t.Fatalf("end = %g, want 2.0", end)
	}
}

func TestFlowDepartureSpeedsUpRemainder(t *testing.T) {
	k := New()
	mb1, mb2 := k.NewMailbox(), k.NewMailbox()
	for _, n := range []string{"a", "b", "c", "d"} {
		k.AddHost(n, 1e9, 1)
	}
	l := k.AddLink("shared", 1e8, 0)
	k.AddRoute("a", "b", []*Link{l})
	k.AddRoute("c", "d", []*Link{l})
	k.Spawn("s1", k.Host("a"), func(p *Proc) { p.Send(mb1, 0.5e8) })
	k.Spawn("r1", k.Host("b"), func(p *Proc) { p.Recv(mb1) })
	k.Spawn("s2", k.Host("c"), func(p *Proc) { p.Send(mb2, 1e8) })
	k.Spawn("r2", k.Host("d"), func(p *Proc) { p.Recv(mb2) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Flow 1 (0.5e8 B) and flow 2 (1e8 B) share: each 5e7 B/s. Flow 1 ends
	// at t=1 having moved 0.5e8. Flow 2 then has 0.5e8 left at full 1e8 B/s:
	// +0.5 s. Total 1.5 s.
	if !close(end, 1.5) {
		t.Fatalf("end = %g, want 1.5", end)
	}
}

func TestMultiHopRouteBottleneck(t *testing.T) {
	k := New()
	mb := k.NewMailbox()
	k.AddHost("a", 1e9, 1)
	k.AddHost("b", 1e9, 1)
	fast := k.AddLink("fast", 1e9, 1e-3)
	slow := k.AddLink("slow", 1e7, 2e-3)
	k.AddRoute("a", "b", []*Link{fast, slow, fast})
	k.Spawn("s", k.Host("a"), func(p *Proc) { p.Send(mb, 1e7) })
	k.Spawn("r", k.Host("b"), func(p *Proc) { p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Latency = 1e-3 + 2e-3 + 1e-3 = 4 ms; bandwidth limited by slow link:
	// 1e7 / 1e7 = 1 s.
	if !close(end, 1.004) {
		t.Fatalf("end = %g, want 1.004", end)
	}
}

func TestLoopbackSameHostComm(t *testing.T) {
	k := New()
	mb := k.NewMailbox()
	h := k.AddHost("h", 1e9, 2)
	k.Spawn("s", h, func(p *Proc) { p.Send(mb, 1e9) })
	k.Spawn("r", h, func(p *Proc) { p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 100 ns of loopback latency, then 1e9 bytes at 10 GB/s.
	if !close(end, 0.1000001) {
		t.Fatalf("end = %g, want 0.1000001 (loopback)", end)
	}
}

func TestISendIRecvWait(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	var overlapped float64
	k.Spawn("s", k.Host("a"), func(p *Proc) {
		c := p.ISend(mb, 1e8)
		p.Execute(2e9) // 2 s of overlapping compute
		p.WaitComm(c)
		overlapped = p.Now()
	})
	k.Spawn("r", k.Host("b"), func(p *Proc) {
		c := p.IRecv(mb)
		p.WaitComm(c)
		if c.Bytes() != 1e8 {
			t.Errorf("received size = %g, want 1e8", c.Bytes())
		}
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Comm takes 1.001 s overlapped with 2 s compute: sender done at 2 s.
	if !close(overlapped, 2.0) || !close(end, 2.0) {
		t.Fatalf("overlapped = %g end = %g, want 2.0", overlapped, end)
	}
}

func TestDetachedSend(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	var sendReturned float64
	k.Spawn("s", k.Host("a"), func(p *Proc) {
		p.ISendDetached(mb, 1e8)
		sendReturned = p.Now()
	})
	k.Spawn("r", k.Host("b"), func(p *Proc) {
		p.Recv(mb)
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sendReturned != 0 {
		t.Fatalf("detached send blocked until %g", sendReturned)
	}
	if !close(end, 1.001) {
		t.Fatalf("end = %g, want 1.001", end)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k, _, _ := twoHostKernel()
	never := k.NewMailbox()
	k.Spawn("r", k.Host("a"), func(p *Proc) {
		p.Recv(never) // nobody sends here
	})
	_, err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := New()
	h := k.AddHost("h", 1e9, 1)
	k.Spawn("p", h, func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(0.5)
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 2.0) {
		t.Fatalf("end = %g, want 2.0", end)
	}
}

func TestZeroVolumeOperations(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	k.Spawn("s", k.Host("a"), func(p *Proc) {
		p.Execute(0)
		p.Send(mb, 0)
	})
	k.Spawn("r", k.Host("b"), func(p *Proc) {
		p.Recv(mb)
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Zero-byte message still pays the route latency.
	if !close(end, 1e-3) {
		t.Fatalf("end = %g, want 1e-3", end)
	}
}

func TestRateModelAppliedToComm(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	k.SetRateModel(func(bytes float64) (float64, float64) {
		return 2.0, 0.5 // double latency, halve effective bandwidth
	})
	k.Spawn("s", k.Host("a"), func(p *Proc) { p.Send(mb, 1e8) })
	k.Spawn("r", k.Host("b"), func(p *Proc) { p.Recv(mb) })
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Latency 2*1e-3, bandwidth 0.5*1e8 -> 2.002 s.
	if !close(end, 2.002) {
		t.Fatalf("end = %g, want 2.002", end)
	}
}

type recordingTracer struct {
	computes int
	comms    int
	lastEnd  float64
}

func (r *recordingTracer) Compute(proc, host string, flops, start, end float64) {
	r.computes++
	r.lastEnd = end
}
func (r *recordingTracer) Comm(src, dst string, bytes, start, end float64) {
	r.comms++
	r.lastEnd = end
}

func TestTracerObservesActivities(t *testing.T) {
	k, _, _ := twoHostKernel()
	mb := k.NewMailbox()
	tr := &recordingTracer{}
	k.SetTracer(tr)
	k.Spawn("s", k.Host("a"), func(p *Proc) {
		p.Execute(1e9)
		p.Send(mb, 1e8)
	})
	k.Spawn("r", k.Host("b"), func(p *Proc) { p.Recv(mb) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.computes != 1 || tr.comms != 1 {
		t.Fatalf("tracer saw %d computes, %d comms", tr.computes, tr.comms)
	}
	if !close(tr.lastEnd, 2.001) {
		t.Fatalf("last end = %g, want 2.001", tr.lastEnd)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		k := New()
		n := 8
		hosts := make([]*Host, n)
		inbox := make([]MailboxID, n)
		l := k.AddLink("bb", 1.25e8, 16.67e-6)
		for i := 0; i < n; i++ {
			hosts[i] = k.AddHost(string(rune('a'+i)), 1e9, 1)
			inbox[i] = k.NewMailbox()
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					k.AddRoute(hosts[i].Name, hosts[j].Name, []*Link{l})
				}
			}
		}
		// Token ring with computation, as in Figure 1 of the paper.
		for i := 0; i < n; i++ {
			i := i
			k.Spawn(hosts[i].Name, hosts[i], func(p *Proc) {
				next := inbox[(i+1)%n]
				for iter := 0; iter < 4; iter++ {
					if i == 0 {
						p.Execute(1e6)
						p.Send(next, 1e6)
						p.Recv(inbox[i])
					} else {
						p.Recv(inbox[i])
						p.Execute(1e6)
						p.Send(next, 1e6)
					}
				}
			})
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("non-deterministic: %g vs %g", again, first)
		}
	}
	if first <= 0 {
		t.Fatal("ring simulation returned non-positive makespan")
	}
}

func TestManyProcessesScale(t *testing.T) {
	// Smoke test: 256 processes ping-ponging do not deadlock or race.
	k := New()
	l := k.AddLink("bb", 1e9, 1e-6)
	n := 256
	names := make([]string, n)
	inbox := make([]MailboxID, n)
	for i := 0; i < n; i++ {
		names[i] = "h" + string(rune('0'+i/100)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i%10))
		k.AddHost(names[i], 1e9, 1)
		inbox[i] = k.NewMailbox()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				k.AddRoute(names[i], names[j], []*Link{l})
			}
		}
	}
	for i := 0; i < n; i += 2 {
		a, b := names[i], names[i+1]
		ia, ib := inbox[i], inbox[i+1]
		k.Spawn(a, k.Host(a), func(p *Proc) {
			p.Send(ib, 1e6)
			p.Recv(ia)
		})
		k.Spawn(b, k.Host(b), func(p *Proc) {
			p.Recv(ib)
			p.Send(ia, 1e6)
		})
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("zero makespan")
	}
}
