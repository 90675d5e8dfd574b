package simx

import (
	"fmt"

	"tireplay/internal/eventq"
)

// This file is the kernel's fault layer: scheduled fail-stop of hosts and
// routes, and windowed speed/bandwidth degradations, all injected through
// the ordinary event queue so they interleave deterministically with the
// simulation. A fail-stop kills the running activities touching the dead
// resource with a typed *FailedError; a degradation re-enters the partial
// max-min reshare with the scaled capacity. Nothing here runs — and the
// rendezvous path pays no extra check — until the first fault is scheduled
// (faultsActive), so the zero-fault hot path is byte- and alloc-identical
// to a kernel without faults.

// FailedError describes a fail-stop fault observed by a simulated process:
// the resource it was using (its own host, a peer's host, a route link)
// stopped. Process bodies recover it with FailureOf.
type FailedError struct {
	Kind string  // "host" or "link"
	Name string  // failed resource ("node3", "a->b" for a failed route)
	Time float64 // simulated time the failure was observed
}

func (e *FailedError) Error() string {
	return fmt.Sprintf("simx: %s %s failed at t=%g", e.Kind, e.Name, e.Time)
}

// killSignal is the panic payload unwinding a process killed by a fail-stop:
// the blocked operation can never complete, so the process body is aborted.
// The process wrapper treats it as a normal death (not a procPanic); bodies
// that want to record the failure recover it themselves via FailureOf.
type killSignal struct{ err *FailedError }

// FailureOf extracts the fail-stop error from a recovered panic value. It
// returns nil for any other panic (including nil), so a process body can
// write:
//
//	defer func() {
//		if fe := simx.FailureOf(recover()); fe != nil { ... record ... }
//	}()
//
// Non-kill panics must be re-raised by the caller, including the one that
// unwinds a process the kernel released when Run ended early.
func FailureOf(r any) *FailedError {
	if ks, ok := r.(killSignal); ok {
		return ks.err
	}
	return nil
}

// ensureAlive aborts the calling process when its host has fail-stopped, so
// a killed process cannot touch kernel state again. Every simulation call
// starts with it; the check is one nil comparison.
func (p *Proc) ensureAlive() {
	if p.failed != nil {
		panic(killSignal{p.failed})
	}
}

// Off reports whether the host has fail-stopped.
func (h *Host) Off() bool { return h.off }

// Off reports whether the link has fail-stopped.
func (l *Link) Off() bool { return l.off }

// timerEvent is the event payload of a scheduled kernel callback.
type timerEvent struct{ fn func() }

// At schedules fn to run at simulated time t, interleaved deterministically
// with activity completions (FIFO among same-time events). Times before the
// current clock are clamped to now. Scheduling any callback arms the
// fault-check path of the rendezvous machinery.
func (k *Kernel) At(t float64, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.faultsActive = true
	k.pendingTimers++
	k.queue.Push(t, &timerEvent{fn: fn})
}

// FailHostAt schedules a fail-stop of the named host at simulated time t:
// the host goes off, its running computes, sleeps and transfers (either
// endpoint) are killed with a *FailedError, its processes die at their next
// simulation call, and later rendezvous with it fail instead of matching.
func (k *Kernel) FailHostAt(name string, t float64) {
	h := k.hosts[name]
	if h == nil {
		panic("simx: FailHostAt of undeclared host " + name)
	}
	k.At(t, func() {
		k.failHost(h, &FailedError{Kind: "host", Name: h.Name, Time: k.now})
	})
}

// FailRouteAt schedules a fail-stop of every link on the src->dst route at
// simulated time t: flows crossing any of those links are killed, and later
// transfers routed over them fail at rendezvous.
func (k *Kernel) FailRouteAt(src, dst string, t float64) {
	s, d := k.hosts[src], k.hosts[dst]
	if s == nil || d == nil {
		panic(fmt.Sprintf("simx: FailRouteAt between undeclared hosts %q -> %q", src, dst))
	}
	k.At(t, func() {
		for _, l := range k.routeBetween(s, d).Links {
			l.off = true
		}
		err := &FailedError{Kind: "link", Name: s.Name + "->" + d.Name, Time: k.now}
		k.collectDoomed(func(a *activity) bool {
			if a.kind != actComm {
				return false
			}
			for _, l := range a.links {
				if l.off {
					return true
				}
			}
			return false
		})
		for _, a := range k.doomed {
			k.killActivity(a, err)
		}
	})
}

// failHost is the fail-stop implementation: mark the host and its processes
// dead, kill every live activity touching it, then wake any of its processes
// still blocked on an unmatched rendezvous (they have no activity to kill).
func (k *Kernel) failHost(h *Host, err *FailedError) {
	if h.off {
		return
	}
	h.off = true
	for _, p := range k.procs {
		if p.host == h && p.state != stateFinished && p.failed == nil {
			p.failed = err
		}
	}
	k.collectDoomed(func(a *activity) bool {
		switch a.kind {
		case actCompute:
			return a.host == h
		case actComm:
			return a.srcHost == h || a.dstHost == h
		case actSleep:
			return a.owner != nil && a.owner.host == h
		}
		return false
	})
	for _, a := range k.doomed {
		k.killActivity(a, err)
	}
	for _, p := range k.procs {
		if p.host == h && p.state == stateBlocked {
			// Blocked on an unmatched rendezvous: there is no activity to
			// kill, so wake the process directly — and take it out of the
			// handle's waiter list, or a later failMatch of that (still
			// queued) handle would wake a dead process.
			if p.blockComm != nil {
				removeMatchWaiter(p.blockComm, p)
			}
			k.wake(p)
		}
	}
}

// removeMatchWaiter deletes p from c's match-waiter list, if present.
func removeMatchWaiter(c *Comm, p *Proc) {
	for i, w := range c.matchWaiters {
		if w == p {
			last := len(c.matchWaiters) - 1
			c.matchWaiters[i] = c.matchWaiters[last]
			c.matchWaiters[last] = nil
			c.matchWaiters = c.matchWaiters[:last]
			return
		}
	}
}

// collectDoomed gathers the live activities selected by doomedFn into the
// kernel's scratch list. Every live activity owns exactly one pending
// completion event, so one pass over the event queue finds them all; the
// heap order is deterministic for a given simulation history.
func (k *Kernel) collectDoomed(doomedFn func(*activity) bool) {
	k.doomed = k.doomed[:0]
	k.queue.Each(func(ev *eventq.Event) {
		if a, ok := ev.Payload.(*activity); ok && doomedFn(a) {
			k.doomed = append(k.doomed, a)
		}
	})
}

// killActivity aborts a live activity: its completion event is cancelled,
// its resource bookkeeping is unwound (with a partial reshare for flows in
// the contended set), and its waiters are woken into the kill signal
// carrying err. The activity is recycled; no reference may survive.
func (k *Kernel) killActivity(a *activity, err *FailedError) {
	if a.doneEv != nil {
		k.queue.Remove(a.doneEv)
		k.queue.Recycle(a.doneEv)
		a.doneEv = nil
	}
	switch a.kind {
	case actCompute:
		h := a.host
		k.removeCompute(h, a)
		if !h.off {
			// Killed on a live host (not reachable today, kept for safety):
			// the survivors' shares grow like after a normal completion.
			k.settleHost(h)
			k.reshareHost(h)
		}
	case actComm:
		if a.phase == phaseTransfer && a.pos >= 0 {
			k.reshareTransition(a, false)
		}
		for i, c := range a.comms {
			if c != nil {
				c.done = true
				c.failed = err
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
		if w.failed == nil {
			w.opFailed = err
		}
		k.wake(w)
		a.waiters[i] = nil
	}
	a.waiters = a.waiters[:0]
	k.freeActivity(a)
}

// failMatch fails a rendezvous instead of starting its transfer: both
// handles complete with err attached and their match waiters are woken into
// the kill signal (a surviving peer observes its partner's death).
func (k *Kernel) failMatch(sc, rc *Comm, err *FailedError) {
	for _, c := range [2]*Comm{sc, rc} {
		c.done = true
		c.failed = err
		for i, w := range c.matchWaiters {
			if w.failed == nil {
				w.opFailed = err
			}
			k.wake(w)
			c.matchWaiters[i] = nil
		}
		c.matchWaiters = c.matchWaiters[:0]
		if c.detached {
			k.freeComm(c)
		}
	}
}

// routeFailure reports the fail-stop a transfer between the two hosts would
// observe: a dead endpoint first, then the first dead link of the route.
func (k *Kernel) routeFailure(src, dst *Host) *FailedError {
	if src.off {
		return &FailedError{Kind: "host", Name: src.Name, Time: k.now}
	}
	if dst.off {
		return &FailedError{Kind: "host", Name: dst.Name, Time: k.now}
	}
	for _, l := range k.routeBetween(src, dst).Links {
		if l.off {
			return &FailedError{Kind: "link", Name: l.Name, Time: k.now}
		}
	}
	return nil
}

// DegradeHostAt scales the host's per-core speed by factor over the
// simulated window [from, to): running computes are settled at the old rate
// and re-shared at the new one, exactly like any other capacity transition.
// The original speed is restored bit-exactly at to. Windows on the same
// host must not overlap.
func (k *Kernel) DegradeHostAt(name string, factor, from, to float64) {
	h := k.hosts[name]
	if h == nil {
		panic("simx: DegradeHostAt of undeclared host " + name)
	}
	if factor <= 0 {
		panic("simx: DegradeHostAt with non-positive factor")
	}
	var prev float64
	k.At(from, func() {
		k.settleHost(h)
		prev = h.Speed
		h.Speed = prev * factor
		k.reshareHost(h)
	})
	k.At(to, func() {
		k.settleHost(h)
		h.Speed = prev
		k.reshareHost(h)
	})
}

// DegradeLinkAt scales the link's bandwidth by factor over the simulated
// window [from, to): the flows crossing it are settled and their connected
// component re-enters the partial max-min reshare with the scaled capacity.
// The original bandwidth is restored bit-exactly at to. Windows on the same
// link must not overlap.
func (k *Kernel) DegradeLinkAt(name string, factor, from, to float64) {
	l := k.links[name]
	if l == nil {
		panic("simx: DegradeLinkAt of undeclared link " + name)
	}
	if factor <= 0 {
		panic("simx: DegradeLinkAt with non-positive factor")
	}
	var prev float64
	k.At(from, func() {
		prev = l.Bandwidth
		l.Bandwidth = prev * factor
		k.reshareLink(l)
	})
	k.At(to, func() {
		l.Bandwidth = prev
		k.reshareLink(l)
	})
}

// DegradeAllHostsAt applies DegradeHostAt's window to every declared host,
// in declaration order (an availability trough: e.g. co-scheduled noise).
func (k *Kernel) DegradeAllHostsAt(factor, from, to float64) {
	if factor <= 0 {
		panic("simx: DegradeAllHostsAt with non-positive factor")
	}
	prev := make([]float64, len(k.hostList))
	k.At(from, func() {
		for i, h := range k.hostList {
			k.settleHost(h)
			prev[i] = h.Speed
			h.Speed = prev[i] * factor
			k.reshareHost(h)
		}
	})
	k.At(to, func() {
		for i, h := range k.hostList {
			k.settleHost(h)
			h.Speed = prev[i]
			k.reshareHost(h)
		}
	})
}

// DegradeAllLinksAt scales every declared link's bandwidth by factor over
// [from, to) — the "bw:" clause of a fault spec. All links change together,
// so the whole flow set is settled once and re-solved once.
func (k *Kernel) DegradeAllLinksAt(factor, from, to float64) {
	if factor <= 0 {
		panic("simx: DegradeAllLinksAt with non-positive factor")
	}
	prev := make([]float64, len(k.linkList))
	k.At(from, func() {
		k.settleFlows(k.flows)
		for i, l := range k.linkList {
			prev[i] = l.Bandwidth
			l.Bandwidth = prev[i] * factor
		}
		k.reshareFlows(k.flows)
	})
	k.At(to, func() {
		k.settleFlows(k.flows)
		for i, l := range k.linkList {
			l.Bandwidth = prev[i]
		}
		k.reshareFlows(k.flows)
	})
}

// reshareLink re-solves the fair shares after l's capacity changed: the
// connected component of flows crossing l is settled (at the old rates) and
// re-shared, leaving every other component untouched — the same partial
// reshare a flow transition performs, minus the membership change.
func (k *Kernel) reshareLink(l *Link) {
	if len(l.flows) == 0 {
		return
	}
	if k.globalReshare {
		k.settleFlows(k.flows)
		k.reshareFlows(k.flows)
		return
	}
	k.epoch++
	e := k.epoch
	l.mark = e
	k.compStack = k.compStack[:0]
	for _, f := range l.flows {
		if f.mark != e {
			f.mark = e
			k.compStack = append(k.compStack, f)
		}
	}
	for n := len(k.compStack); n > 0; n = len(k.compStack) {
		f := k.compStack[n-1]
		k.compStack[n-1] = nil
		k.compStack = k.compStack[:n-1]
		for _, fl := range f.links {
			if fl.mark == e {
				continue
			}
			fl.mark = e
			for _, g := range fl.flows {
				if g.mark != e {
					g.mark = e
					k.compStack = append(k.compStack, g)
				}
			}
		}
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
