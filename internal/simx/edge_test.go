package simx

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMissingRouteSurfacesAsRunError(t *testing.T) {
	k := New()
	k.AddHost("a", 1e9, 1)
	k.AddHost("b", 1e9, 1)
	mb := k.NewMailbox()
	// No route a->b declared: sending must fail loudly, not hang or crash.
	k.Spawn("s", k.Host("a"), func(p *Proc) { p.Send(mb, 10) })
	k.Spawn("r", k.Host("b"), func(p *Proc) { p.Recv(mb) })
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("err = %v", err)
	}
}

func TestProcessPanicSurfacesAsRunError(t *testing.T) {
	k := New()
	h := k.AddHost("a", 1e9, 1)
	k.Spawn("bad", h, func(p *Proc) { panic("user bug") })
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "user bug") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error does not name the process: %v", err)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	k := New()
	k.AddHost("a", 1e9, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate host")
		}
	}()
	k.AddHost("a", 1e9, 1)
}

func TestDuplicateLinkPanics(t *testing.T) {
	k := New()
	k.AddLink("l", 1e8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate link")
		}
	}()
	k.AddLink("l", 1e8, 0)
}

func TestRouteToUndeclaredHostPanics(t *testing.T) {
	k := New()
	k.AddHost("a", 1e9, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for route to unknown host")
		}
	}()
	k.AddRoute("a", "ghost", nil)
}

// TestInvalidCompletionDelayNamesTransfer: a transfer over a zero-bandwidth
// link can never complete, and the kernel's panic names its two endpoints
// (platform loading refuses such a link before a replay can reach this).
func TestInvalidCompletionDelayNamesTransfer(t *testing.T) {
	k := New()
	k.AddHost("a", 1e9, 1)
	k.AddHost("b", 1e9, 1)
	k.AddRoute("a", "b", []*Link{k.AddLink("l", 0, 1e-6)})
	mb := k.NewMailbox()
	k.SpawnFunc("src", k.Host("a"), sendThenCompute(mb, 1e6, 0))
	k.SpawnFunc("dst", k.Host("b"), recvThenSleep(mb, 0))
	defer func() {
		msg, _ := recover().(string)
		if want := `simx: invalid completion delay +Inf for transfer "src" -> "dst"`; msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
	}()
	k.Run()
}

func TestZeroCoreHostClamped(t *testing.T) {
	k := New()
	h := k.AddHost("a", 1e9, 0)
	if h.Cores != 1 {
		t.Fatalf("cores = %d", h.Cores)
	}
}

func TestDeadlockErrorListsReasons(t *testing.T) {
	k := New()
	h := k.AddHost("a", 1e9, 1)
	never := k.NewMailbox()
	k.Spawn("starved", h, func(p *Proc) { p.Recv(never) })
	_, err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(de.Error(), "starved") {
		t.Fatalf("deadlock error does not name the process: %v", de)
	}
}

func TestWaitOnCompletedCommReturnsImmediately(t *testing.T) {
	k := New()
	h1 := k.AddHost("a", 1e9, 1)
	h2 := k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1e8, 0)
	k.AddRoute("a", "b", []*Link{l})
	mb := k.NewMailbox()
	var tAfter float64
	k.Spawn("s", h1, func(p *Proc) {
		c := p.ISend(mb, 10)
		p.Sleep(1) // comm completes long before
		p.WaitComm(c)
		p.WaitComm(c) // second wait on a done comm is a no-op
		tAfter = p.Now()
	})
	k.Spawn("r", h2, func(p *Proc) { p.Recv(mb) })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tAfter != 1.0 {
		t.Fatalf("wait after completion advanced clock to %g", tAfter)
	}
}

func TestManySmallMessagesOrdering(t *testing.T) {
	// FIFO matching: messages arrive in send order.
	k := New()
	h1 := k.AddHost("a", 1e9, 1)
	h2 := k.AddHost("b", 1e9, 1)
	l := k.AddLink("l", 1e8, 1e-6)
	k.AddRoute("a", "b", []*Link{l})
	mb := k.NewMailbox()
	const n = 100
	k.Spawn("s", h1, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.ISendDetached(mb, float64(8+i))
		}
	})
	var got []float64
	k.Spawn("r", h2, func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, p.Recv(mb))
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d of %d messages", len(got), n)
	}
	for i, v := range got {
		if v != float64(8+i) {
			t.Fatalf("message %d out of order: got size %g", i, v)
		}
	}
}

func TestHostAccessors(t *testing.T) {
	k := New()
	k.AddHost("x", 2e9, 4)
	if k.Hosts() != 1 {
		t.Fatalf("Hosts() = %d", k.Hosts())
	}
	if k.Host("nope") != nil {
		t.Fatal("unknown host should be nil")
	}
	if k.Link("nope") != nil {
		t.Fatal("unknown link should be nil")
	}
	l := k.AddLink("l", 1e8, 1e-3)
	if k.Link("l") != l {
		t.Fatal("link lookup failed")
	}
}

func TestNowAdvancesMonotonically(t *testing.T) {
	k := New()
	h := k.AddHost("a", 1e9, 1)
	var stamps []float64
	k.Spawn("p", h, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Execute(1e6)
			stamps = append(stamps, p.Now())
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] <= stamps[i-1] {
			t.Fatalf("clock not monotonic: %v", stamps)
		}
	}
}

// goroutinesBackTo waits briefly for the goroutine count to return to
// before and reports the count it settled at.
func goroutinesBackTo(before int) int {
	for i := 0; i < 50; i++ {
		if n := runtime.NumGoroutine(); n <= before {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestRunReleasesUnfinishedProcesses: a Run that ends early — deadlock or a
// process panic — must stop every unfinished process before returning, so
// no coroutine outlives the simulation. Released bodies unwind through
// their defers (with a panic that is not a fail-stop kill), and the error
// Run returns is the one the simulation produced.
func TestRunReleasesUnfinishedProcesses(t *testing.T) {
	// unwound returns a body defer that records the unwinding and re-raises
	// it, the way replay rank bodies treat foreign panics.
	unwound := func(t *testing.T, ran *int) func() {
		return func() {
			r := recover()
			if r == nil {
				t.Error("a released body returned instead of unwinding")
				return
			}
			if FailureOf(r) != nil {
				t.Errorf("release unwound as a fail-stop kill: %v", r)
			}
			*ran++
			panic(r)
		}
	}

	t.Run("deadlock", func(t *testing.T) {
		before := runtime.NumGoroutine()
		k, a, b := twoHostKernel()
		never, void := k.NewMailbox(), k.NewMailbox()
		var defers int
		k.Spawn("recv", a, func(p *Proc) {
			defer unwound(t, &defers)()
			p.Recv(never)
		})
		k.Spawn("send", b, func(p *Proc) {
			defer unwound(t, &defers)()
			p.Send(void, 10)
		})
		k.Spawn("done", b, func(p *Proc) { p.Execute(1e6) })
		_, err := k.Run()
		want := "simx: deadlock at t=0.001 with 2 blocked process(es): " +
			"recv: waiting match on comm; send: waiting match on comm"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %s", err, want)
		}
		if defers != 2 {
			t.Fatalf("%d of 2 blocked bodies unwound", defers)
		}
		if n := goroutinesBackTo(before); n > before {
			t.Fatalf("goroutines leaked: %d before, %d after", before, n)
		}
	})

	t.Run("panic", func(t *testing.T) {
		before := runtime.NumGoroutine()
		k, a, b := twoHostKernel()
		never, mb := k.NewMailbox(), k.NewMailbox()
		var defers int
		freshRan := false
		// Spawn order is step order: blocked parks on a rendezvous nobody
		// serves; runnable parks on a send that bad's receive matches, which
		// makes it runnable again; bad panics before runnable or fresh gets
		// another step.
		k.Spawn("blocked", a, func(p *Proc) {
			defer unwound(t, &defers)()
			p.Recv(never)
		})
		k.Spawn("runnable", a, func(p *Proc) {
			defer unwound(t, &defers)()
			p.Send(mb, 10)
		})
		k.Spawn("bad", b, func(p *Proc) {
			p.IRecv(mb)
			panic("boom")
		})
		k.Spawn("fresh", b, func(p *Proc) { freshRan = true })
		_, err := k.Run()
		want := `simx: process "bad" panicked: boom`
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %s", err, want)
		}
		if defers != 2 {
			t.Fatalf("%d of 2 started bodies unwound", defers)
		}
		if freshRan {
			t.Fatal("a process released before its first step ran its body")
		}
		if n := goroutinesBackTo(before); n > before {
			t.Fatalf("goroutines leaked: %d before, %d after", before, n)
		}
	})
}
