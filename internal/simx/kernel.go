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
// Simulated processes are scheduled cooperatively: exactly one process runs
// at a time and control returns to the kernel whenever the process waits on
// a simulation call, which keeps simulations fully deterministic. A step
// process (SpawnFunc) is a function the kernel calls on its own goroutine
// each time the process is runnable; it posts an operation, parks and
// returns. A body process (Spawn) is a coroutine (iter.Pull) whose blocking
// calls post, park and yield. See Proc.
//
// # Kernel performance notes
//
// The hot path of a replay is the pair of bandwidth-sharing updates done
// when a transfer joins or leaves the contended flow set. The kernel keeps
// that path allocation-free, and confines the expensive work — the max-min
// solve and the event rescheduling — to the flows actually affected. What a
// transition costs besides is a look at the changed flow's links and one
// sequential pass over the flows it re-solves, plus a walk of the flow/link
// graph when no single link couples the whole set:
//
//   - Flow and compute sets are intrusive slices: every activity stores its
//     index (activity.pos) in the set that holds it, the same position-index
//     trick eventq.Event uses, so membership updates are O(1) or one
//     memmove, and iteration is in deterministic start order.
//
//   - Resharing is partial. Max-min fair allocations decompose by connected
//     components of the flow/link sharing graph: flows that share no link
//     (directly or transitively) with a changed flow cannot see their rate
//     change. When a flow joins or leaves, the kernel settles and re-solves
//     only the connected component of the changed flow, and leaves every
//     other component's rates and completion events untouched. Each link
//     lists the flows crossing it, each flow once. If one of the changed
//     flow's links lists every flow of the set, the component is the whole
//     set and the flow list is re-solved as it stands — every transition on
//     a cluster whose backbone all routes cross. Otherwise the kernel walks
//     the component through the per-link lists. The fair shares are
//     bit-identical to a solve of the whole flow set: the solver processes
//     the component's flows in the same relative order with the same link
//     capacities (the invariant tests in reshare_test.go check every rate
//     against such a solve after every event, and that each transition
//     settles exactly its component; FuzzPartialReshare fuzzes both).
//
//   - Whole-set solves are memoized, exactly. The kernel numbers every
//     route it resolves, and a re-solve of the whole flow set (a transition
//     that skips the walk, or a DegradeAllLinksAt edge) is keyed by its
//     flows' route IDs in order. The solver reads nothing but those flows'
//     links and the links' Bandwidth and Sharing, so a solve that repeats
//     an earlier one ID for ID gets the earlier allocations copied back,
//     bit for bit (every candidate key is compared in full; the hash only
//     picks a slot). The memo is bounded: 2^14 slots in 4-way sets over an
//     arena of at most 2^16 words, rewound with the slots cleared when
//     full. DegradeAllLinksAt, the one writer of Bandwidth during a run,
//     resets it at both edges. A walked component, whose flow sets repeat
//     far less often, is solved directly. MemoHits counts the answered
//     solves.
//
//   - Rescheduling is lazy. After a component is re-solved, a flow whose
//     fair share came out unchanged keeps its pending completion event: the
//     event time is a mathematically equal expression of the same completion
//     instant (lastUpdate + remaining/rate, which every settle since rounds
//     anew, stays within a few ulps per settle of it), so the
//     cancel+push round-trip (and its heap churn) is skipped and LazySkips
//     counts it. Events that do move are sifted in place
//     (eventq.Queue.Update) instead of removed and re-pushed.
//
//   - Step processes switch by function call: the kernel resumes a step
//     process by calling its step function and regains control when the
//     step returns, with no goroutine switch, and a parked step process
//     keeps no stack (a body process's coroutine starts at 4 KB). The
//     replay's ranks are step processes, so a 16k-rank world runs on the
//     one goroutine that calls Run. Body processes pay a coroutine round
//     trip per blocking call.
//
//   - Activities, queue events and communication handles are pooled on free
//     lists, mailboxes have no names — a MailboxID indexes a dense table, so
//     the rendezvous path neither formats nor hashes a string — and routes
//     resolve through a pointer-keyed per-host cache, so steady-state replay
//     performs no per-action heap allocation at all (see
//     TestPostMatchCompleteZeroAllocs and BenchmarkReplaySteadyState).
//
//   - Links carry their declaration index, and AppendRouteLinks walks a
//     route as dense link indices (host loopbacks numbered after the
//     declared links), so observers that account per-resource usage — the
//     replay fork recorder — index slices instead of building and hashing
//     link names.
//
// The golden corpus (internal/sweep, TestGoldenCorpus) pins the simulated
// times and timed traces these paths produce, bit for bit.
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

	// mailboxes is the table a MailboxID indexes.
	mailboxes []*Mailbox

	// flows holds the comm activities in transfer phase, in start order;
	// each activity records its index in pos.
	flows     []*activity
	rateModel RateModel
	tracer    Tracer

	// lazySkips counts completion events left in place because a reshare
	// handed the activity the rate it already progressed at.
	lazySkips uint64
	// transitions counts flows joining or leaving the contended set, and
	// walkSkips those whose component one of the flow's links coupled
	// whole, re-solved without walking the flow/link graph.
	transitions, walkSkips uint64

	// Partial-reshare scratch: walk epoch, frontier stack and the collected
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

	maxmin maxMinSolver
	memo   solveMemo
	// routeIDs counts the route IDs issued (see Route).
	routeIDs int32
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{
		hosts:  make(map[string]*Host),
		links:  make(map[string]*Link),
		router: NewTableRouter(),
	}
}

// Now returns the current simulated time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// SetRateModel installs the message-size-dependent latency/bandwidth
// correction model applied to every point-to-point communication.
func (k *Kernel) SetRateModel(m RateModel) { k.rateModel = m }

// SetTracer installs an observer of completed activities.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// LazySkips reports how many completion-event reschedules the lazy path
// elided because the activity's solved rate was unchanged.
func (k *Kernel) LazySkips() uint64 { return k.lazySkips }

// MemoHits reports how many max-min solves the solve memo answered with the
// allocations of an earlier solve of the same routes.
func (k *Kernel) MemoHits() uint64 { return k.memo.hits }

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
// a deadlock or a process panic it releases every unfinished body process,
// so an aborted simulation leaves no coroutine behind.
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
		k.settle(a)
	}
}

// reshareHost recomputes the fair share of h's compute activities and
// reschedules their completion events.
func (k *Kernel) reshareHost(h *Host) {
	n := len(h.computes)
	if n == 0 {
		return
	}
	share := h.Speed
	if n > h.Cores {
		share = h.Speed * float64(h.Cores) / float64(n)
	}
	for _, a := range h.computes {
		if a.rate == share && a.doneEv != nil {
			// The fair share did not move (e.g. a burst joined a host with
			// spare cores): the pending completion event is still exact.
			k.lazySkips++
			continue
		}
		a.rate = share
		k.reschedule(a, a.remaining/a.rate)
	}
}

// addFlow appends a to the contended flow set and to the flow list of every
// link it crosses, once per link: a route may name a link twice, and the
// link's list then already ends with a, so that its length counts the flows
// crossing it.
func (k *Kernel) addFlow(a *activity) {
	a.pos = len(k.flows)
	k.flows = append(k.flows, a)
	for _, l := range a.links {
		if n := len(l.flows); n > 0 && l.flows[n-1] == a {
			continue
		}
		l.flows = append(l.flows, a)
	}
}

// removeFlow takes a out of the flow set, preserving the start order of the
// remaining flows (the solver's floating-point accumulation order), and out
// of its links' flow lists (a link the route names twice finds a gone the
// second time).
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
//
// When one of a's links carries every flow of the set (a joining flow
// counts as part of it), that component is the whole set, and the flow list
// is settled and re-solved as it stands, with no walk, through the solve
// memo. This is every transition on a cluster whose backbone every route
// crosses. Otherwise the component is found by walking the flow/link graph
// and solved directly. Both paths hand the solver the component's flows in
// start order, so they give the same bits.
func (k *Kernel) reshareTransition(a *activity, joining bool) {
	k.transitions++
	// Before the membership change a joining flow is in no flow list and a
	// leaving one is in every list of its links, so in both cases a link
	// listing as many flows as k.flows carries every flow of the set.
	whole := false
	for _, l := range a.links {
		if len(l.flows) == len(k.flows) {
			whole = true
			break
		}
	}
	if !whole {
		k.markComponent(a)
	}

	// Update membership first, then settle and re-solve the component in
	// start order, so the solver's arithmetic matches what a global solve
	// would do. Settling after the membership change is safe: rates have
	// not been touched yet, and a itself needs no settling (it either just
	// joined with lastUpdate=now and rate 0, or just completed and is gone
	// from the list).
	if joining {
		k.addFlow(a)
	} else {
		k.removeFlow(a)
	}
	if whole {
		k.walkSkips++
		k.settleFlows(k.flows)
		k.reshareAll()
		return
	}
	k.comp = k.comp[:0]
	for _, f := range k.flows {
		if f.mark == k.epoch {
			k.settle(f)
			k.comp = append(k.comp, f)
		}
	}
	k.maxmin.solve(k.comp)
	k.rerate(k.comp)
}

// markComponent marks, with a fresh epoch, the flows and links of the
// connected component reachable from a through shared links.
func (k *Kernel) markComponent(a *activity) {
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
}

// settleFlows updates the progress of the given flows up to now.
func (k *Kernel) settleFlows(flows []*activity) {
	for _, a := range flows {
		k.settle(a)
	}
}

// settle updates the progress of one activity up to now.
func (k *Kernel) settle(a *activity) {
	a.remaining -= a.rate * (k.now - a.lastUpdate)
	if a.remaining < 0 {
		a.remaining = 0
	}
	a.lastUpdate = k.now
}

// reshareAll recomputes the max-min fair allocation of the whole flow set,
// through the solve memo, and reschedules the flows' completion events.
func (k *Kernel) reshareAll() {
	if len(k.flows) > 0 {
		k.memo.solve(&k.maxmin, k.flows)
		k.rerate(k.flows)
	}
}

// rerate sets every solved flow's rate from its allocation and reschedules
// its completion event.
func (k *Kernel) rerate(flows []*activity) {
	for _, a := range flows {
		// The bandwidth factor models protocol efficiency: the flow occupies
		// its allocated share but progresses at bwFactor times it.
		rate := a.allocated * a.bwFactor
		if rate <= 0 {
			rate = math.SmallestNonzeroFloat64
		}
		if rate == a.rate && a.doneEv != nil {
			// Lazy rescheduling: the solver handed the flow the same share
			// it already progresses at, so its pending completion event is
			// still exact — skip the cancel+push churn. (Settling above only
			// moved progress bookkeeping to now; it does not move the
			// completion instant.)
			k.lazySkips++
			continue
		}
		a.rate = rate
		k.reschedule(a, a.remaining/a.rate)
	}
}

// reschedule moves a's completion event to now+dt, sifting the pending event
// in place when there is one (no free-list round-trip on the hot path).
func (k *Kernel) reschedule(a *activity, dt float64) {
	if math.IsInf(dt, 0) || math.IsNaN(dt) {
		if a.kind == actComm {
			panic(fmt.Sprintf("simx: invalid completion delay %g for transfer %q -> %q", dt, a.srcName, a.dstName))
		}
		panic(fmt.Sprintf("simx: invalid completion delay %g for activity of %q", dt, a.ownerName))
	}
	if a.doneEv != nil && k.queue.Update(a.doneEv, k.now+dt) {
		return
	}
	a.doneEv = k.queue.Push(k.now+dt, a)
}
