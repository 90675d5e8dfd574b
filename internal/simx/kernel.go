// Package simx is a discrete-event simulation kernel in the style of the
// SimGrid toolkit, providing the substrate on which both the trace replay
// tool and the virtual-time MPI engine run.
//
// The kernel models:
//
//   - hosts with a computing power in flop/s per core and a core count,
//     shared fairly among concurrent compute activities;
//   - network links with a bandwidth and a latency, shared among concurrent
//     flows according to an analytical max-min fairness contention model
//     (the flow-based model SimGrid validates against packet-level
//     simulation);
//   - multi-hop routes between hosts, so a transfer crosses several links
//     and hierarchical cluster topologies are contended realistically;
//   - mailboxes with rendezvous semantics used to match sends and receives.
//
// Simulated processes are coroutines (iter.Pull) scheduled cooperatively:
// exactly one process runs at a time and control returns to the kernel
// whenever the process blocks on a simulation call, which keeps simulations
// fully deterministic.
//
// # Kernel performance notes
//
// The hot path of a replay is the pair of bandwidth-sharing updates done
// when a transfer joins or leaves the contended flow set. The kernel keeps
// that path allocation-free, and confines the expensive work — the max-min
// solve and the event rescheduling — to the flows actually affected (the
// per-transition bookkeeping that remains is one sequential pointer scan of
// the active-flow list):
//
//   - Flow and compute sets are intrusive slices: every activity stores its
//     index (activity.pos) in the set that holds it, the same position-index
//     trick eventq.Event uses, so membership updates are O(1) or one
//     memmove, and iteration is in deterministic start order.
//
//   - Resharing is partial. Max-min fair allocations decompose by connected
//     components of the flow/link sharing graph: flows that share no link
//     (directly or transitively) with a changed flow cannot see their rate
//     change. When a flow joins or leaves, the kernel walks only the
//     connected component of the changed flow (via per-link flow lists),
//     settles and re-solves those flows, and leaves every other component's
//     rates and completion events untouched. The fair shares are
//     bit-identical to a global re-solve (the solver processes the
//     component's flows in the same relative order with the same link
//     capacities); simulated times agree to the ulp, exactly when every
//     transition touches one component and otherwise up to floating-point
//     reassociation of the untouched components' progress updates (see
//     TestPartialReshareMatchesGlobal and its Ring variant).
//
//   - Rescheduling is lazy. After a component is re-solved, a flow whose
//     fair share came out unchanged keeps its pending completion event: the
//     event time is a mathematically equal expression of the same completion
//     instant, so the cancel+push round-trip (and its heap churn) is skipped.
//     Activities stamp the reshare epoch that last changed their rate
//     (rateEpoch); SetEagerReschedule(true) restores the cancel+push
//     reference path and TestLazyRescheduleMatchesEager pins the
//     equivalence. Events that do move are sifted in place
//     (eventq.Queue.Update) instead of removed and re-pushed.
//
//   - Processes switch as coroutines: the kernel resumes a process with the
//     coroutine's next and the process hands control back with its yield,
//     a direct goroutine switch that bypasses the Go scheduler (no channel
//     operation, no run-queue wake-up). Every blocking simulation call pays
//     one such round trip, so it bounds the per-action cost of a replay.
//
//   - Activities, queue events and communication handles are pooled on free
//     lists, mailboxes are interned behind dense IDs (MailboxID) so the
//     rendezvous path neither formats nor hashes a name, and routes resolve
//     through a pointer-keyed per-host cache — so steady-state replay
//     performs no per-action heap allocation at all (see
//     TestPostMatchCompleteZeroAllocs and BenchmarkReplaySteadyState).
//
// SetGlobalReshare(true) restores the reference full-reshare path, which is
// useful to cross-check simulations and benchmark the gain.
package simx

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tireplay/internal/eventq"
	"tireplay/internal/fifo"
)

// RateModel adjusts a point-to-point communication according to the message
// size, returning a latency multiplier and a bandwidth multiplier. It is how
// the piece-wise linear MPI model of the paper plugs into the kernel. A nil
// model means factors of 1.
type RateModel func(bytes float64) (latencyFactor, bandwidthFactor float64)

// Tracer observes completed activities; the replay tool uses it to emit
// timed traces of a simulation (one of the outputs in Figure 4 of the paper).
type Tracer interface {
	// Compute is called when a compute burst of the given volume, executed
	// by process proc on host, completes.
	Compute(proc, host string, flops, start, end float64)
	// Comm is called when a point-to-point transfer completes.
	Comm(srcProc, dstProc string, bytes, start, end float64)
}

// Kernel is a discrete-event simulator instance. Create one with New,
// populate it with hosts, links, routes and processes, then call Run.
type Kernel struct {
	now   float64
	queue eventq.Queue

	hosts map[string]*Host
	links map[string]*Link
	// hostList/linkList keep the declaration order: fault injection walks
	// all hosts or links (e.g. a global bandwidth degradation) and must do
	// so deterministically — map iteration order would leak into completion
	// event tie-breaking.
	hostList []*Host
	linkList []*Link
	// router resolves host-pair routes; the default is a dense-keyed
	// TableRouter fed by AddRoute, platform layers may install computed
	// routers (see Router).
	router Router

	procs []*Proc
	// runq reuses one backing array across scheduling batches instead of
	// re-slicing it away.
	runq      fifo.Queue[*Proc]
	blocked   int
	living    int
	procPanic error // first panic raised by a process body

	// mailboxes resolves string names; mboxByID is the dense table behind
	// interned MailboxIDs (anonymous mailboxes live only there).
	mailboxes map[string]*Mailbox
	mboxByID  []*Mailbox

	// flows holds the comm activities in transfer phase, in start order;
	// each activity records its index in pos.
	flows     []*activity
	rateModel RateModel
	tracer    Tracer

	// globalReshare disables partial resharing: every flow transition
	// settles and re-solves the full flow set. This is the reference path
	// used by equivalence tests and benchmarks.
	globalReshare bool

	// eagerResched disables lazy rescheduling: every reshare cancels and
	// re-pushes the completion event of every touched activity even when
	// its rate did not change. The lazy path skips that event-queue churn
	// by comparing the freshly solved rate against the current one (the
	// activity's rateEpoch records the last reshare that actually changed
	// it). globalReshare implies eager, so the reference path stays the
	// paper-style full re-solve.
	eagerResched bool

	// rateEpoch counts reshare passes; an activity is stamped with the pass
	// that last changed its rate. The skip decision itself compares the
	// freshly solved rate against the current one; the epoch is the
	// auditable record that a skipped activity's completion event was left
	// in place (see TestRateEpochStamping).
	rateEpoch uint64
	// lazySkips counts completion events left in place by the lazy path.
	lazySkips uint64

	// Partial-reshare scratch: BFS epoch, frontier stack and the collected
	// component, reused across transitions.
	epoch     uint64
	compStack []*activity
	comp      []*activity

	// actPool recycles completed activities; commPool recycles released
	// communication handles.
	actPool  []*activity
	commPool []*Comm

	// faultsActive is set once any fault is scheduled; the rendezvous path
	// only pays the failed-resource checks when it is. doomed is the scratch
	// list of activities collected for killing on a fail-stop, and
	// pendingTimers counts scheduled callbacks still in the queue so Run can
	// tell "only fault timers left" from real pending work (a fault scheduled
	// past the natural end of the simulation must not extend the makespan).
	faultsActive  bool
	doomed        []*activity
	pendingTimers int

	// DefaultLoopback is used for communications between two processes on
	// the same host (e.g. folded acquisitions); it is modelled as a private
	// link per host, so loopback traffic does not contend with the network.
	LoopbackBandwidth float64
	LoopbackLatency   float64

	maxmin maxMinSolver
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{
		hosts:             make(map[string]*Host),
		links:             make(map[string]*Link),
		router:            NewTableRouter(),
		mailboxes:         make(map[string]*Mailbox),
		LoopbackBandwidth: 10e9, // 10 GB/s shared-memory copy rate
		LoopbackLatency:   1e-7, // 100 ns
	}
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// SetRateModel installs the message-size-dependent latency/bandwidth
// correction model applied to every point-to-point communication.
func (k *Kernel) SetRateModel(m RateModel) { k.rateModel = m }

// SetTracer installs an observer of completed activities.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// SetGlobalReshare switches the kernel to the reference sharing path that
// re-solves the complete flow set on every transition. The default partial
// path produces bit-identical simulated times; this switch exists to verify
// that claim and to measure the speedup.
func (k *Kernel) SetGlobalReshare(on bool) { k.globalReshare = on }

// SetEagerReschedule switches the kernel back to the reference rescheduling
// path that cancels and re-pushes every touched activity's completion event
// on each reshare, even when the solved rate is unchanged. The default lazy
// path leaves events of rate-stable activities in place; this switch exists
// for the lazy-vs-eager equivalence tests and to measure the gain.
func (k *Kernel) SetEagerReschedule(on bool) { k.eagerResched = on }

// eager reports whether rescheduling must be unconditional; the global
// reference path is always eager.
func (k *Kernel) eager() bool { return k.eagerResched || k.globalReshare }

// LazySkips reports how many completion-event reschedules the lazy path
// elided because the activity's solved rate was unchanged.
func (k *Kernel) LazySkips() uint64 { return k.lazySkips }

// DeadlockError reports a simulation that cannot progress: the event queue
// is empty while processes are still blocked.
type DeadlockError struct {
	Time    float64
	Blocked []string // "proc: reason" entries
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("simx: deadlock at t=%g with %d blocked process(es): %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes the simulation until no process can progress. It returns the
// final simulated time (the makespan) and a non-nil *DeadlockError if
// processes remained blocked when the event queue drained. Before returning
// a deadlock or a process panic it releases every unfinished process, so an
// aborted simulation leaves no coroutine behind.
func (k *Kernel) Run() (float64, error) {
	for {
		for !k.runq.Empty() {
			p := k.runq.Pop()
			k.step(p)
			if k.procPanic != nil {
				// A process body panicked: abort the simulation, unwinding
				// every unfinished process (the kernel is dead).
				k.release()
				return k.now, k.procPanic
			}
		}
		if k.living == 0 && k.pendingTimers == k.queue.Len() {
			// Every process is done and the queue holds nothing but scheduled
			// fault callbacks (every live activity owns a pending non-timer
			// event): firing them could only advance the clock past the real
			// makespan, with no process left to observe the fault.
			break
		}
		ev := k.queue.Pop()
		if ev == nil {
			break
		}
		if ev.Time < k.now {
			// Guard against clock regression; indicates a kernel bug.
			panic(fmt.Sprintf("simx: event at %g before now %g", ev.Time, k.now))
		}
		k.now = ev.Time
		k.handleEvent(ev)
		k.queue.Recycle(ev)
	}
	if k.blocked > 0 {
		var blocked []string
		for _, p := range k.procs {
			if p.state == stateBlocked {
				blocked = append(blocked, p.name+": "+p.blockReason())
			}
		}
		sort.Strings(blocked)
		k.release()
		return k.now, &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return k.now, nil
}

// handleEvent dispatches a fired event to the owning activity, or runs a
// scheduled kernel callback (fault injection).
func (k *Kernel) handleEvent(ev *eventq.Event) {
	a, ok := ev.Payload.(*activity)
	if !ok {
		if te, ok := ev.Payload.(*timerEvent); ok {
			k.pendingTimers--
			te.fn()
			return
		}
		panic("simx: unknown event payload")
	}
	a.doneEv = nil // the fired event is the activity's completion event
	switch a.phase {
	case phaseLatency:
		// Latency paid: the transfer joins the contended flow set.
		a.phase = phaseTransfer
		a.lastUpdate = k.now
		if a.remaining <= 0 {
			k.completeActivity(a)
			return
		}
		k.reshareTransition(a, true)
	case phaseTransfer, phaseCompute, phaseSleep:
		k.completeActivity(a)
	default:
		panic("simx: event on activity in unexpected phase")
	}
}

// completeActivity finishes a and wakes its waiters. The activity is
// recycled: no reference may survive this call.
func (k *Kernel) completeActivity(a *activity) {
	switch a.kind {
	case actCompute:
		h := a.host
		k.removeCompute(h, a)
		k.settleHost(h)
		k.reshareHost(h)
		if k.tracer != nil {
			k.tracer.Compute(a.ownerName, h.Name, a.volume, a.start, k.now)
		}
	case actComm:
		// pos >= 0 distinguishes contended transfers from zero-byte ones
		// that completed straight out of the latency phase.
		if a.phase == phaseTransfer && a.pos >= 0 {
			k.reshareTransition(a, false)
		}
		if k.tracer != nil {
			k.tracer.Comm(a.srcName, a.dstName, a.volume, a.start, k.now)
		}
		// Detach the comm handles so they stay queryable after the
		// activity is recycled. Detached (fire-and-forget) sends have no
		// holder left once the transfer is done, so their handles go
		// straight back to the pool.
		for i, c := range a.comms {
			if c != nil {
				c.done = true
				c.act = nil
				a.comms[i] = nil
				if c.detached {
					k.freeComm(c)
				}
			}
		}
	case actSleep:
		// Nothing to release.
	}
	a.done = true
	for i, w := range a.waiters {
		k.wake(w)
		a.waiters[i] = nil
	}
	a.waiters = a.waiters[:0]
	k.freeActivity(a)
}

// wake moves a blocked process back onto the run queue.
func (k *Kernel) wake(p *Proc) {
	if p.state != stateBlocked {
		panic("simx: waking process that is not blocked: " + p.name)
	}
	p.state = stateRunnable
	p.blockKind = blockNone
	p.blockComm = nil
	k.blocked--
	k.runq.Push(p)
}

// removeCompute takes a out of h's compute set in O(1) via its position.
func (k *Kernel) removeCompute(h *Host, a *activity) {
	last := len(h.computes) - 1
	if a.pos != last {
		moved := h.computes[last]
		h.computes[a.pos] = moved
		moved.pos = a.pos
	}
	h.computes[last] = nil
	h.computes = h.computes[:last]
	a.pos = -1
}

// settleHost updates the progress of every compute activity on h up to now.
func (k *Kernel) settleHost(h *Host) {
	for _, a := range h.computes {
		a.remaining -= a.rate * (k.now - a.lastUpdate)
		if a.remaining < 0 {
			a.remaining = 0
		}
		a.lastUpdate = k.now
	}
}

// reshareHost recomputes the fair share of h's compute activities and
// reschedules their completion events.
func (k *Kernel) reshareHost(h *Host) {
	n := len(h.computes)
	if n == 0 {
		return
	}
	k.rateEpoch++
	share := h.Speed
	if n > h.Cores {
		share = h.Speed * float64(h.Cores) / float64(n)
	}
	for _, a := range h.computes {
		if a.rate == share && a.doneEv != nil && !k.eager() {
			// The fair share did not move (e.g. a burst joined a host with
			// spare cores): the pending completion event is still exact.
			k.lazySkips++
			continue
		}
		a.rate = share
		a.rateEpoch = k.rateEpoch
		k.reschedule(a, a.remaining/a.rate)
	}
}

// addFlow appends a to the contended flow set and to the flow list of every
// link it crosses.
func (k *Kernel) addFlow(a *activity) {
	a.pos = len(k.flows)
	k.flows = append(k.flows, a)
	for _, l := range a.links {
		l.flows = append(l.flows, a)
	}
}

// removeFlow takes a out of the flow set, preserving the start order of the
// remaining flows (the solver's floating-point accumulation order), and out
// of its links' flow lists.
func (k *Kernel) removeFlow(a *activity) {
	copy(k.flows[a.pos:], k.flows[a.pos+1:])
	last := len(k.flows) - 1
	for i := a.pos; i < last; i++ {
		k.flows[i].pos = i
	}
	k.flows[last] = nil
	k.flows = k.flows[:last]
	a.pos = -1
	for _, l := range a.links {
		for i, f := range l.flows {
			if f == a {
				llast := len(l.flows) - 1
				l.flows[i] = l.flows[llast]
				l.flows[llast] = nil
				l.flows = l.flows[:llast]
				break
			}
		}
	}
}

// reshareTransition handles a flow joining (joining=true) or leaving the
// contended set: it settles and re-solves only the connected component of
// flows sharing links with a, leaving disjoint components untouched.
func (k *Kernel) reshareTransition(a *activity, joining bool) {
	if k.globalReshare {
		k.settleFlows(k.flows)
		if joining {
			k.addFlow(a)
		} else {
			k.removeFlow(a)
		}
		k.reshareFlows(k.flows)
		return
	}

	// Mark the connected component reachable from a through shared links.
	k.epoch++
	e := k.epoch
	a.mark = e
	k.compStack = append(k.compStack[:0], a)
	for n := len(k.compStack); n > 0; n = len(k.compStack) {
		f := k.compStack[n-1]
		k.compStack[n-1] = nil
		k.compStack = k.compStack[:n-1]
		for _, l := range f.links {
			if l.mark == e {
				continue
			}
			l.mark = e
			for _, g := range l.flows {
				if g.mark != e {
					g.mark = e
					k.compStack = append(k.compStack, g)
				}
			}
		}
	}

	// Update membership first, then settle and gather the marked flows in
	// one pass over the flow list, in start order, so the solver's
	// arithmetic matches what a global solve would do. Settling after the
	// membership change is safe: rates have not been touched yet, and a
	// itself needs no settling (it either just joined with lastUpdate=now
	// and rate 0, or just completed and is gone from the list).
	if joining {
		k.addFlow(a)
	} else {
		k.removeFlow(a)
	}
	k.comp = k.comp[:0]
	for _, f := range k.flows {
		if f.mark != e {
			continue
		}
		f.remaining -= f.rate * (k.now - f.lastUpdate)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastUpdate = k.now
		k.comp = append(k.comp, f)
	}
	k.reshareFlows(k.comp)
}

// settleFlows updates the progress of the given flows up to now.
func (k *Kernel) settleFlows(flows []*activity) {
	for _, a := range flows {
		a.remaining -= a.rate * (k.now - a.lastUpdate)
		if a.remaining < 0 {
			a.remaining = 0
		}
		a.lastUpdate = k.now
	}
}

// reshareFlows recomputes the max-min fair allocation over the given flows
// and reschedules their completion events.
func (k *Kernel) reshareFlows(flows []*activity) {
	if len(flows) == 0 {
		return
	}
	k.rateEpoch++
	k.maxmin.solve(flows)
	for _, a := range flows {
		// The bandwidth factor models protocol efficiency: the flow occupies
		// its allocated share but progresses at bwFactor times it.
		rate := a.allocated * a.bwFactor
		if rate <= 0 {
			rate = math.SmallestNonzeroFloat64
		}
		if rate == a.rate && a.doneEv != nil && !k.eager() {
			// Rate-epoch lazy rescheduling: the solver handed the flow the
			// same share it already progresses at, so its pending completion
			// event is still exact — skip the cancel+push churn. (Settling
			// above only moved progress bookkeeping to now; it does not move
			// the completion instant.)
			k.lazySkips++
			continue
		}
		a.rate = rate
		a.rateEpoch = k.rateEpoch
		k.reschedule(a, a.remaining/a.rate)
	}
}

// reschedule moves a's completion event to now+dt, sifting the pending event
// in place when there is one (no free-list round-trip on the hot path).
func (k *Kernel) reschedule(a *activity, dt float64) {
	if math.IsInf(dt, 0) || math.IsNaN(dt) {
		panic(fmt.Sprintf("simx: invalid completion delay %g for activity of %q", dt, a.ownerName))
	}
	if a.doneEv != nil && k.queue.Update(a.doneEv, k.now+dt) {
		return
	}
	a.doneEv = k.queue.Push(k.now+dt, a)
}
