package simx

import (
	"fmt"
	"iter"
)

// procState tracks where a process is in its life-cycle.
type procState uint8

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateFinished
)

// Proc is a simulated process: a coroutine (iter.Pull) that the kernel
// resumes and that yields back to the kernel whenever it blocks on a
// simulation call. All simulation calls (Execute, Send, Recv, ...) must be
// made from the process's own body function.
type Proc struct {
	k    *Kernel
	name string
	host *Host

	state procState

	// Block diagnostics, kept as raw data so the hot path never formats
	// strings; DeadlockError renders them lazily.
	blockKind blockKind
	blockComm *Comm   // set for blockComm / blockMatch
	blockVol  float64 // flops or seconds for blockCompute / blockSleep

	// failed is sticky: set when the process's own host fail-stops, so every
	// later simulation call dies with the failure. opFailed delivers a
	// single operation's failure (e.g. the peer's host died mid-transfer) at
	// wake-up; it is consumed by the next return from block.
	failed   *FailedError
	opFailed *FailedError

	// next resumes the coroutine until the process blocks or finishes;
	// yield, called from inside it, hands control back to the kernel; stop
	// unwinds a process the kernel will never resume again (see release).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// releaseSignal is the panic payload unwinding a process the kernel stopped
// because Run ended with it unfinished (deadlock or another process's
// panic). It is not a killSignal, so FailureOf ignores it and bodies that
// re-raise foreign panics pass it on to Proc.run, which absorbs it.
type releaseSignal struct{}

// Spawn creates a process named name running body on host. Processes start
// in spawn order when Run is called. The host must already be declared.
func (k *Kernel) Spawn(name string, host *Host, body func(*Proc)) *Proc {
	if host == nil {
		panic("simx: Spawn with nil host")
	}
	p := &Proc{k: k, name: name, host: host}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Park before the body: Spawn runs the coroutine up to here, so its
		// set-up allocations count against Spawn rather than Run, and a
		// process released before its first step never runs its body.
		if yield(struct{}{}) {
			p.run(body)
		}
		p.state = stateFinished
		k.living--
	})
	k.procs = append(k.procs, p)
	k.living++
	k.runq.Push(p)
	p.next()
	return p
}

// run executes the body, absorbing the panics that end a process normally.
func (p *Proc) run(body func(*Proc)) {
	defer func() {
		switch r := recover().(type) {
		case nil, killSignal, releaseSignal:
			// A fail-stop kill or a release unwinding the body is a normal
			// death, not a bug: the process is gone. Bodies that want to
			// record a failure recover it themselves via FailureOf.
		default:
			// Surface the panic as a Run error instead of killing the whole
			// program; the kernel aborts the simulation.
			if p.k.procPanic == nil {
				p.k.procPanic = fmt.Errorf("simx: process %q panicked: %v", p.name, r)
			}
		}
	}()
	body(p)
}

// step runs p until it blocks or finishes.
func (k *Kernel) step(p *Proc) {
	if p.state != stateRunnable {
		panic("simx: stepping process that is not runnable: " + p.name)
	}
	p.state = stateRunning
	p.next()
}

// release stops every unfinished process, so a Run that ends early leaves
// no coroutine behind: a blocked or runnable process unwinds its body
// (running its defers) through releaseSignal, a process never stepped
// returns without running its body.
func (k *Kernel) release() {
	for _, p := range k.procs {
		if p.state != stateFinished {
			p.stop()
		}
	}
}

// blockKind says what a blocked process is waiting for.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockCompute
	blockSleep
	blockMatch
	blockComm
)

// block suspends the calling process until the kernel wakes it: it yields
// the process's coroutine back to the kernel, which resumes it with next.
// Must be called from the process's own body. A wake-up caused by a
// fail-stop raises the kill signal instead of returning: the blocked
// operation can never complete, so the process unwinds (see FailureOf). A
// process the kernel released unwinds with the release signal.
func (p *Proc) block(kind blockKind) {
	p.state = stateBlocked
	p.blockKind = kind
	p.k.blocked++
	if !p.yield(struct{}{}) {
		panic(releaseSignal{})
	}
	if p.failed != nil {
		panic(killSignal{p.failed})
	}
	if e := p.opFailed; e != nil {
		p.opFailed = nil
		panic(killSignal{e})
	}
}

// blockReason renders the block diagnostics; only called when building a
// DeadlockError, so the simulation hot path pays no formatting cost.
func (p *Proc) blockReason() string {
	switch p.blockKind {
	case blockCompute:
		return fmt.Sprintf("computing %g flops", p.blockVol)
	case blockSleep:
		return fmt.Sprintf("sleeping %gs", p.blockVol)
	case blockMatch:
		return "waiting match on comm"
	case blockComm:
		c := p.blockComm
		return fmt.Sprintf("waiting comm %s->%s (%g bytes)", c.src, c.dst, c.bytes)
	}
	return "blocked"
}

// Host returns the host the process runs on.
func (p *Proc) Host() *Host { return p.host }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.k.now }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Execute simulates a computation of the given volume (flops) on the
// process's host, blocking until it completes. Concurrent bursts on the same
// host share its power fairly.
func (p *Proc) Execute(flops float64) {
	p.ensureAlive()
	a := p.k.startCompute(p, p.host, flops)
	a.waiters = append(a.waiters, p)
	p.blockVol = flops
	p.block(blockCompute)
}

// Sleep suspends the process for the given simulated duration.
func (p *Proc) Sleep(seconds float64) {
	p.ensureAlive()
	a := p.k.startSleep(p, seconds)
	a.waiters = append(a.waiters, p)
	p.blockVol = seconds
	p.block(blockSleep)
}

// SleepUntil suspends the process until the absolute simulated time t; it is
// an immediate-completion sleep when t is not in the future. Forked replays
// use it to advance each resumed rank to its recorded park time before the
// post-divergence actions continue.
func (p *Proc) SleepUntil(t float64) {
	d := t - p.k.now
	if d < 0 {
		d = 0
	}
	p.Sleep(d)
}

// Send posts a message of the given size to the mailbox and blocks until
// the transfer has completed (rendezvous + full transmission), matching the
// synchronous MPI_Send semantics used by the replay tool.
func (p *Proc) Send(mb MailboxID, bytes float64) {
	p.ensureAlive()
	c := p.k.post(p, p.k.mailboxAt(mb), bytes, false)
	p.WaitComm(c)
	// The handle was never exposed: back to the pool.
	p.k.freeComm(c)
}

// ISend posts a message asynchronously and returns a handle that can be
// waited on. The transfer starts when a matching receive is posted.
func (p *Proc) ISend(mb MailboxID, bytes float64) *Comm {
	p.ensureAlive()
	return p.k.post(p, p.k.mailboxAt(mb), bytes, false)
}

// ISendDetached posts a fire-and-forget message: no handle, the kernel
// finishes the transfer in the background.
func (p *Proc) ISendDetached(mb MailboxID, bytes float64) {
	p.ensureAlive()
	p.k.post(p, p.k.mailboxAt(mb), bytes, true)
}

// Recv blocks until a message is received from the mailbox and returns its
// size in bytes.
func (p *Proc) Recv(mb MailboxID) float64 {
	p.ensureAlive()
	c := p.k.postRecv(p, p.k.mailboxAt(mb))
	p.WaitComm(c)
	bytes := c.bytes
	p.k.freeComm(c)
	return bytes
}

// IRecv posts a receive request asynchronously and returns a handle.
func (p *Proc) IRecv(mb MailboxID) *Comm {
	p.ensureAlive()
	return p.k.postRecv(p, p.k.mailboxAt(mb))
}

// ReleaseComm hands a completed ISend/IRecv handle back to the kernel pool.
// Purely an optimisation: callers that keep querying the handle simply never
// release it and the garbage collector takes over. The handle must not be
// used after the call, and a handle may be released at most once.
func (p *Proc) ReleaseComm(c *Comm) {
	if c == nil || !c.done {
		return
	}
	p.k.freeComm(c)
}

// WaitComm blocks until the communication completes. Safe to call on an
// already-completed handle.
func (p *Proc) WaitComm(c *Comm) {
	if c == nil {
		panic("simx: WaitComm(nil)")
	}
	p.ensureAlive()
	for !c.matched() {
		// The comm has no activity yet: the peer has not posted. Block on
		// the request itself; the mailbox wakes us at match time, then we
		// wait for the transfer.
		c.addMatchWaiter(p)
		p.blockComm = c
		p.block(blockMatch)
	}
	if c.done {
		if c.failed != nil {
			panic(killSignal{c.failed})
		}
		return
	}
	c.act.waiters = append(c.act.waiters, p)
	p.blockComm = c
	p.block(blockComm)
}
