package simx

import "tireplay/internal/eventq"

// actKind discriminates the resource an activity consumes.
type actKind uint8

const (
	actCompute actKind = iota
	actComm
	actSleep
)

// phase tracks the life-cycle of an activity. Communications pay the route
// latency first (phaseLatency) and only then contend for bandwidth
// (phaseTransfer); computations and sleeps have a single phase.
type phase uint8

const (
	phaseCompute phase = iota
	phaseLatency
	phaseTransfer
	phaseSleep
)

// activity is a unit of simulated work: a compute burst, a data transfer, or
// a sleep. It progresses at a rate set by the kernel's sharing models and
// completes via an event in the kernel queue. Activities are pooled by the
// kernel: completed ones return to a free list, so steady-state replay
// creates no garbage per action.
type activity struct {
	kind  actKind
	phase phase
	// route is the kernel ID of the transfer's route (comm only), the
	// activity's share of a solve memo key (see solveMemo). It sits in the
	// padding after kind and phase.
	route int32

	volume    float64 // total flops or bytes (0 for sleeps)
	remaining float64
	rate      float64
	allocated float64 // max-min share (comm only, before bwFactor)
	bwFactor  float64

	lastUpdate float64
	start      float64
	done       bool

	// pos is the activity's index in the set it currently belongs to —
	// Kernel.flows for transfers, Host.computes for compute bursts — the
	// same position-index trick eventq.Event uses for O(1) cancellation.
	// -1 while the activity is in no set.
	pos int
	// mark is the kernel's visit epoch during component traversal.
	mark uint64

	host  *Host   // compute only
	links []*Link // route links (comm), cached for the solver

	// srcHost/dstHost are the transfer endpoints and owner the proc behind a
	// compute or sleep; the fault injector targets activities through them
	// when a resource fail-stops.
	srcHost *Host
	dstHost *Host
	owner   *Proc

	ownerName string // proc that created it (compute, sleep)
	srcName   string // comm: sending process
	dstName   string // comm: receiving process

	doneEv  *eventq.Event
	waiters []*Proc
	// comms are the send- and receive-side handles of a transfer; at
	// completion they are detached so the activity can be recycled while
	// handles remain queryable.
	comms [2]*Comm
}

// newActivity takes an activity from the kernel pool (or allocates one) and
// resets it to a zero state, keeping the waiters backing array.
func (k *Kernel) newActivity() *activity {
	n := len(k.actPool)
	if n == 0 {
		return &activity{pos: -1}
	}
	a := k.actPool[n-1]
	k.actPool[n-1] = nil
	k.actPool = k.actPool[:n-1]
	waiters := a.waiters[:0]
	*a = activity{pos: -1, waiters: waiters}
	return a
}

// freeActivity returns a completed activity to the pool. The caller must
// have removed it from every kernel set and detached every external handle.
func (k *Kernel) freeActivity(a *activity) {
	k.actPool = append(k.actPool, a)
}

// startCompute creates and registers a compute activity on h.
func (k *Kernel) startCompute(p *Proc, h *Host, flops float64) *activity {
	a := k.newActivity()
	a.kind = actCompute
	a.phase = phaseCompute
	a.volume = flops
	a.remaining = flops
	a.lastUpdate = k.now
	a.start = k.now
	a.host = h
	a.owner = p
	a.ownerName = p.name
	a.bwFactor = 1
	k.settleHost(h)
	a.pos = len(h.computes)
	h.computes = append(h.computes, a)
	if flops <= 0 {
		// Zero-work burst: complete "immediately" through the event queue to
		// preserve deterministic ordering with same-time events.
		a.remaining = 0
		a.doneEv = k.queue.Push(k.now, a)
		return a
	}
	k.reshareHost(h)
	return a
}

// startSleep creates a pure-delay activity.
func (k *Kernel) startSleep(p *Proc, seconds float64) *activity {
	if seconds < 0 {
		seconds = 0
	}
	a := k.newActivity()
	a.kind = actSleep
	a.phase = phaseSleep
	a.lastUpdate = k.now
	a.start = k.now
	a.owner = p
	a.ownerName = p.name
	a.bwFactor = 1
	a.doneEv = k.queue.Push(k.now+seconds, a)
	return a
}

// startTransfer creates a communication activity between two hosts. The
// latency phase starts immediately; the transfer phase joins the contended
// flow set when the latency has elapsed.
func (k *Kernel) startTransfer(src, dst *Host, srcName, dstName string, bytes float64) *activity {
	route := k.routeBetween(src, dst)
	latF, bwF := 1.0, 1.0
	if k.rateModel != nil {
		latF, bwF = k.rateModel(bytes)
	}
	a := k.newActivity()
	a.kind = actComm
	a.phase = phaseLatency
	a.volume = bytes
	a.remaining = bytes
	a.lastUpdate = k.now
	a.start = k.now
	a.links = route.Links
	a.route = route.id
	a.srcHost = src
	a.dstHost = dst
	a.srcName = srcName
	a.dstName = dstName
	a.bwFactor = bwF
	a.doneEv = k.queue.Push(k.now+route.Latency*latF, a)
	return a
}
