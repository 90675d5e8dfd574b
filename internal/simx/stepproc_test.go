package simx

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sendThenCompute returns a step function that sends bytes to mb, waits for
// the transfer, computes flops and ends.
func sendThenCompute(mb MailboxID, bytes, flops float64) func(*Proc) {
	var c *Comm
	stage := 0
	return func(p *Proc) {
		switch stage {
		case 0:
			c = p.ISend(mb, bytes)
			stage = 1
			fallthrough
		case 1:
			if p.ParkComm(c) {
				return
			}
			p.ReleaseComm(c)
			stage = 2
			p.ParkExecute(flops)
		}
	}
}

// recvThenSleep returns a step function that receives from mb, then sleeps
// seconds and ends.
func recvThenSleep(mb MailboxID, seconds float64) func(*Proc) {
	var c *Comm
	stage := 0
	return func(p *Proc) {
		switch stage {
		case 0:
			c = p.IRecv(mb)
			stage = 1
			fallthrough
		case 1:
			if p.ParkComm(c) {
				return
			}
			p.ReleaseComm(c)
			stage = 2
			p.ParkSleep(seconds)
		}
	}
}

// logTracer keeps every completion in order, times as float bits.
type logTracer struct{ recs []string }

func (t *logTracer) Compute(proc, host string, flops, start, end float64) {
	t.recs = append(t.recs, fmt.Sprintf("compute %s %s %g %x %x",
		proc, host, flops, math.Float64bits(start), math.Float64bits(end)))
}

func (t *logTracer) Comm(src, dst string, bytes, start, end float64) {
	t.recs = append(t.recs, fmt.Sprintf("comm %s %s %g %x %x",
		src, dst, bytes, math.Float64bits(start), math.Float64bits(end)))
}

// TestStepProcessMatchesBody: a step process posts and parks where a body
// process blocks, so each of the four pairings of kinds replays one
// exchange to the same makespan bits and the same completion records.
func TestStepProcessMatchesBody(t *testing.T) {
	run := func(stepSender, stepReceiver bool) (float64, []string) {
		k, a, b := twoHostKernel()
		mb := k.NewMailbox()
		tr := &logTracer{}
		k.SetTracer(tr)
		if stepSender {
			k.SpawnFunc("send", a, sendThenCompute(mb, 1e6, 3e8))
		} else {
			k.Spawn("send", a, func(p *Proc) {
				p.Send(mb, 1e6)
				p.Execute(3e8)
			})
		}
		if stepReceiver {
			k.SpawnFunc("recv", b, recvThenSleep(mb, 0.25))
		} else {
			k.Spawn("recv", b, func(p *Proc) {
				p.Recv(mb)
				p.Sleep(0.25)
			})
		}
		end, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end, tr.recs
	}
	want, wantRecs := run(false, false)
	if len(wantRecs) != 2 {
		t.Fatalf("bodies traced %d completions, want the transfer and the compute", len(wantRecs))
	}
	for _, kinds := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		end, recs := run(kinds[0], kinds[1])
		if math.Float64bits(end) != math.Float64bits(want) || strings.Join(recs, "|") != strings.Join(wantRecs, "|") {
			t.Errorf("step sender %v, step receiver %v: makespan %v with %d records, bodies gave %v with %d",
				kinds[0], kinds[1], end, len(recs), want, len(wantRecs))
		}
	}
}

// TestStepProcessFailStop: a fail-stop reaches a parked step process the
// way it reaches a body: the dead host's receiver and its surviving sender
// both end with the failure recorded for Killed, and the run completes.
func TestStepProcessFailStop(t *testing.T) {
	k, a, b := twoHostKernel()
	mb := k.NewMailbox()
	sender := k.SpawnFunc("sender", a, sendThenCompute(mb, 1e9, 1e6)) // 10 s transfer
	recv := k.SpawnFunc("recv", b, recvThenSleep(mb, 1))
	never := k.NewMailbox()
	idle := k.SpawnFunc("idle", b, recvThenSleep(never, 1))
	k.FailHostAt("b", 3.0)
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !close(end, 3.0) {
		t.Fatalf("makespan = %g, want 3", end)
	}
	for _, p := range []*Proc{sender, recv, idle} {
		fe := p.Killed()
		if fe == nil || fe.Kind != "host" || fe.Name != "b" || !close(fe.Time, 3.0) {
			t.Errorf("%s: Killed() = %+v, want host b at t=3", p.name, fe)
		}
	}
}

// TestStepProcessAborts: a parked step process shows in a deadlock's
// diagnosis, and a step that panics, or calls a blocking operation it has
// no stack for, is a Run error rather than a crash.
func TestStepProcessAborts(t *testing.T) {
	k, a, _ := twoHostKernel()
	k.SpawnFunc("recv", a, recvThenSleep(k.NewMailbox(), 1))
	_, err := k.Run()
	if want := "simx: deadlock at t=0 with 1 blocked process(es): recv: waiting match on comm"; err == nil || err.Error() != want {
		t.Fatalf("deadlock: err = %v, want %s", err, want)
	}

	k, a, _ = twoHostKernel()
	k.SpawnFunc("bad", a, func(p *Proc) { panic("boom") })
	if _, err := k.Run(); err == nil || err.Error() != `simx: process "bad" panicked: boom` {
		t.Fatalf("panic: err = %v", err)
	}

	k, a, _ = twoHostKernel()
	k.SpawnFunc("blocking", a, func(p *Proc) { p.Execute(1e6) })
	if _, err := k.Run(); err == nil || !strings.Contains(err.Error(), "Suspend without a parked body process") {
		t.Fatalf("blocking call in a step: err = %v", err)
	}
}
