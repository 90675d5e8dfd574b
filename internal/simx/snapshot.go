package simx

import "fmt"

// Quiescent reports why the kernel is not at a quiescent instant, or nil. A
// kernel is quiescent when no process is live, runnable or blocked, no
// activity is in flight, no rendezvous is pending and no resource is
// fail-stopped: the state a simulation reaches when every process has
// parked (returned from its body). Pending fault timers are allowed — Run
// itself terminates with them still queued when a fault is scheduled past
// the natural end of the simulation.
//
// At such an instant the whole mutable state of the simulation collapses to
// the clock plus the static platform. That is why a shared-prefix fork
// donor must quiesce: its members then need nothing from it but the
// per-process park times, and resume on kernels of their own
// (Proc.ParkSleepUntil).
func (k *Kernel) Quiescent() error {
	switch {
	case k.living != 0:
		return fmt.Errorf("simx: not quiescent: %d live processes", k.living)
	case k.blocked != 0:
		return fmt.Errorf("simx: not quiescent: %d blocked processes", k.blocked)
	case !k.runq.Empty():
		return fmt.Errorf("simx: not quiescent: %d runnable processes", k.runq.Len())
	case k.procPanic != nil:
		return fmt.Errorf("simx: not quiescent after process panic: %w", k.procPanic)
	case len(k.flows) != 0:
		return fmt.Errorf("simx: not quiescent: %d in-flight transfers", len(k.flows))
	case k.queue.Len() != k.pendingTimers:
		return fmt.Errorf("simx: not quiescent: %d non-timer events pending", k.queue.Len()-k.pendingTimers)
	}
	for _, h := range k.hostList {
		if h.off {
			return fmt.Errorf("simx: not quiescent: fail-stopped host %q", h.Name)
		}
		if len(h.computes) != 0 {
			return fmt.Errorf("simx: not quiescent: %d running computes on %q", len(h.computes), h.Name)
		}
	}
	for _, l := range k.linkList {
		if l.off {
			return fmt.Errorf("simx: not quiescent: fail-stopped link %q", l.Name)
		}
	}
	for id, mb := range k.mailboxes {
		if !mb.sends.Empty() || !mb.recvs.Empty() {
			return fmt.Errorf("simx: not quiescent: pending rendezvous in mailbox %d", id)
		}
	}
	return nil
}
