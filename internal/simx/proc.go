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

// Proc is a simulated process. It comes in two kinds, which share the run
// queue, the wake-ups, fail-stop delivery, deadlock diagnostics and the
// path that turns a panic into a Run error:
//
//   - A step process (SpawnFunc) is a function the kernel calls, on the
//     kernel's own goroutine, each time the process is runnable. Inside it
//     ParkExecute, ParkSleep and ParkComm post their operation and park the
//     process without blocking; the step then returns, and the kernel calls
//     it again once the process is woken. A waiting step process holds its
//     state and no goroutine.
//   - A body process (Spawn) is a coroutine (iter.Pull) running a body that
//     may block: Execute, Sleep, Send, Recv and WaitComm are the same post
//     and park halves followed by Suspend, which yields the coroutine to the
//     kernel until the process is woken.
//
// All simulation calls must be made from the process's own step or body.
type Proc struct {
	k    *Kernel
	name string
	host *Host

	state procState
	// stepped is set once a step process has had its first step: every
	// later step follows a park, so it starts by delivering the wake's
	// fail-stop.
	stepped bool

	// Block diagnostics, kept as raw data so the hot path never formats
	// strings; DeadlockError renders them lazily.
	blockKind blockKind
	blockComm *Comm   // set for blockComm / blockMatch
	blockVol  float64 // flops or seconds for blockCompute / blockSleep

	// failed is sticky: set when the process's own host fail-stops, so every
	// later simulation call dies with the failure. opFailed delivers a
	// single operation's failure (e.g. the peer's host died mid-transfer) at
	// wake-up; it is consumed by the next resumption. killed records the
	// fail-stop that ended the process.
	failed   *FailedError
	opFailed *FailedError
	killed   *FailedError

	// fn is a step process's step function; nil for a body process.
	fn func(*Proc)

	// next resumes a body process's coroutine until the process blocks or
	// finishes; yield, called from inside it, hands control back to the
	// kernel; stop unwinds a process the kernel will never resume again
	// (see release).
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// releaseSignal is the panic payload unwinding a process the kernel stopped
// because Run ended with it unfinished (deadlock or another process's
// panic). It is not a killSignal, so FailureOf ignores it and bodies that
// re-raise foreign panics pass it on to Proc.run, which absorbs it.
type releaseSignal struct{}

// SpawnFunc creates a step process named name on host: the kernel calls
// step each time the process is runnable, and a step that returns without
// parking ends the process. Processes start in spawn order when Run is
// called. The host must already be declared.
func (k *Kernel) SpawnFunc(name string, host *Host, step func(*Proc)) *Proc {
	p := k.newProc(name, host)
	p.fn = step
	return p
}

// Spawn creates a body process named name running body on host, a
// coroutine whose simulation calls block. Processes start in spawn order
// when Run is called. The host must already be declared.
func (k *Kernel) Spawn(name string, host *Host, body func(*Proc)) *Proc {
	p := k.newProc(name, host)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Park before the body: Spawn runs the coroutine up to here, so its
		// set-up allocations count against Spawn rather than Run, and a
		// process released before its first step never runs its body.
		if yield(struct{}{}) {
			p.run(body)
		}
		p.finish()
	})
	p.next()
	return p
}

// newProc registers a runnable process of either kind.
func (k *Kernel) newProc(name string, host *Host) *Proc {
	if host == nil {
		panic("simx: Spawn with nil host")
	}
	p := &Proc{k: k, name: name, host: host}
	k.procs = append(k.procs, p)
	k.living++
	k.runq.Push(p)
	return p
}

// finish ends the process.
func (p *Proc) finish() {
	p.state = stateFinished
	p.k.living--
}

// run executes a body, absorbing the panics that end a process normally.
func (p *Proc) run(body func(*Proc)) {
	defer func() { p.absorb(recover()) }()
	body(p)
}

// absorb handles the panic r that unwound a process: a fail-stop kill or a
// release is a normal death, not a bug (the kill is recorded for Killed);
// any other panic becomes the Run error instead of killing the program.
func (p *Proc) absorb(r any) {
	switch r := r.(type) {
	case nil, releaseSignal:
	case killSignal:
		p.killed = r.err
	default:
		if p.k.procPanic == nil {
			p.k.procPanic = fmt.Errorf("simx: process %q panicked: %v", p.name, r)
		}
	}
}

// step runs p until it parks or finishes.
func (k *Kernel) step(p *Proc) {
	if p.state != stateRunnable {
		panic("simx: stepping process that is not runnable: " + p.name)
	}
	p.state = stateRunning
	if p.fn == nil {
		p.next()
		return
	}
	k.stepFunc(p)
}

// stepFunc calls a step process's step function. Every step but the first
// resumes the process from a park, so it first raises the fail-stop the
// wake carried, the way Suspend does for a body process.
func (k *Kernel) stepFunc(p *Proc) {
	defer p.endStep()
	if p.stepped {
		p.checkWake()
	}
	p.stepped = true
	p.fn(p)
}

// endStep closes a step: a step that returned without parking, or unwound
// with a panic, ends the process.
func (p *Proc) endStep() {
	p.absorb(recover())
	if p.state == stateRunning {
		p.finish()
	}
}

// release stops every unfinished body process, so a Run that ends early
// leaves no coroutine behind: a blocked or runnable process unwinds its body
// (running its defers) through releaseSignal, a process never stepped
// returns without running its body. Step processes hold no goroutine and
// need no release.
func (k *Kernel) release() {
	for _, p := range k.procs {
		if p.stop != nil && p.state != stateFinished {
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

// park marks the running process blocked until the kernel wakes it. It is
// the second half of every waiting call: the operation has been posted.
func (p *Proc) park(kind blockKind) {
	if p.state != stateRunning {
		panic("simx: parking a process that is not running: " + p.name)
	}
	p.state = stateBlocked
	p.blockKind = kind
	p.k.blocked++
}

// Suspend hands a parked body process's control back to the kernel and
// returns once the process is woken. A wake-up caused by a fail-stop raises
// the kill signal instead of returning: the awaited operation can never
// complete, so the process unwinds (see FailureOf). A process the kernel
// released unwinds with the release signal. Only a Spawn body may call it,
// right after one of the Park calls.
func (p *Proc) Suspend() {
	if p.yield == nil || p.state != stateBlocked {
		panic("simx: Suspend without a parked body process: " + p.name)
	}
	if !p.yield(struct{}{}) {
		panic(releaseSignal{})
	}
	p.checkWake()
}

// checkWake raises the fail-stop that woke the process, if any.
func (p *Proc) checkWake() {
	if p.failed != nil {
		panic(killSignal{p.failed})
	}
	if e := p.opFailed; e != nil {
		p.opFailed = nil
		panic(killSignal{e})
	}
}

// Killed returns the fail-stop that ended the process, or nil. A body that
// recovers the kill itself (FailureOf) ends normally and leaves it nil.
func (p *Proc) Killed() *FailedError { return p.killed }

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

// ParkExecute starts a computation of the given volume (flops) on the
// process's host and parks the process until it completes. Concurrent
// bursts on the same host share its power fairly.
func (p *Proc) ParkExecute(flops float64) {
	p.ensureAlive()
	a := p.k.startCompute(p, p.host, flops)
	a.waiters = append(a.waiters, p)
	p.blockVol = flops
	p.park(blockCompute)
}

// Execute simulates a computation of the given volume (flops), blocking
// until it completes.
func (p *Proc) Execute(flops float64) {
	p.ParkExecute(flops)
	p.Suspend()
}

// ParkSleep parks the process for the given simulated duration.
func (p *Proc) ParkSleep(seconds float64) {
	p.ensureAlive()
	a := p.k.startSleep(p, seconds)
	a.waiters = append(a.waiters, p)
	p.blockVol = seconds
	p.park(blockSleep)
}

// Sleep suspends the process for the given simulated duration.
func (p *Proc) Sleep(seconds float64) {
	p.ParkSleep(seconds)
	p.Suspend()
}

// ParkSleepUntil parks the process until the absolute simulated time t; it
// is an immediate-completion sleep when t is not in the future. Forked
// replays use it to advance each resumed rank to its recorded park time
// before the post-divergence actions continue.
func (p *Proc) ParkSleepUntil(t float64) {
	d := t - p.k.now
	if d < 0 {
		d = 0
	}
	p.ParkSleep(d)
}

// SleepUntil suspends the process until the absolute simulated time t.
func (p *Proc) SleepUntil(t float64) {
	p.ParkSleepUntil(t)
	p.Suspend()
}

// Send posts a message of the given size to the mailbox and blocks until
// the transfer has completed (rendezvous + full transmission), matching the
// synchronous MPI_Send semantics used by the replay tool.
func (p *Proc) Send(mb MailboxID, bytes float64) {
	c := p.ISend(mb, bytes)
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
	c := p.IRecv(mb)
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

// ParkComm parks the process until the communication progresses and
// reports true, or reports false without parking once it has completed.
// A process woken from it calls it again until it reports false: the wake
// at match time still leaves the transfer to wait for. A completed
// communication that a fail-stop killed kills the process.
func (p *Proc) ParkComm(c *Comm) bool {
	if c == nil {
		panic("simx: waiting on a nil comm")
	}
	p.ensureAlive()
	if !c.matched() {
		// The comm has no activity yet: the peer has not posted. Park on the
		// request itself; the mailbox wakes us at match time, then we wait
		// for the transfer.
		c.addMatchWaiter(p)
		p.blockComm = c
		p.park(blockMatch)
		return true
	}
	if c.done {
		if c.failed != nil {
			panic(killSignal{c.failed})
		}
		return false
	}
	c.act.waiters = append(c.act.waiters, p)
	p.blockComm = c
	p.park(blockComm)
	return true
}

// WaitComm blocks until the communication completes. Safe to call on an
// already-completed handle.
func (p *Proc) WaitComm(c *Comm) {
	for p.ParkComm(c) {
		p.Suspend()
	}
}
