package replay

import (
	"fmt"

	"tireplay/internal/coll"
	"tireplay/internal/simx"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// This file holds the built-in actions of Table 1, each written once as
// steps of the rank's state machine: begin posts an action's first kernel
// operations and parks the rank when it must wait, resume continues it
// after the wake. A stackless rank (simx.Kernel.SpawnFunc) returns to the
// kernel at each park; a rank running as a coroutine, and the Handler that
// Lookup returns for a built-in, suspend instead (see builtin).

// cont says what a parked rank resumes when it is woken: the continuation
// of its action in flight.
type cont uint8

const (
	contNone    cont = iota // between actions
	contPark                // a forked member's rank, not yet advanced to its park time
	contDone                // a compute burst; its wake completes the action
	contWait                // waiting on p.wait (send, recv, wait)
	contWaitAll             // draining the pending requests
	contColl                // running p.steps
)

// p2pMbox resolves the mailbox of src-to-dst point-to-point traffic from
// the world's pair table, created on the pair's first message.
func (p *Proc) p2pMbox(src, dst int) simx.MailboxID {
	return p.world.pairMbox(&p.world.p2p, src, dst)
}

// collMbox resolves the mailbox of src-to-dst collective traffic from the
// world's collective pair table, where a pair's messages of every
// collective meet in posting order.
func (p *Proc) collMbox(src, dst int) simx.MailboxID {
	return p.world.pairMbox(&p.world.coll, src, dst)
}

// checkPeer rejects the rank itself and peers outside the deployment,
// naming the action by verb ("sends to"). A message to or from itself has
// no partner, and the pair table keys src*n+dst alias across ranks for an
// out-of-range peer; the run loop does not re-validate actions (a custom
// Source can hand over anything), so such a peer must fail with a
// diagnostic rather than meet a stranger's traffic or a bare deadlock.
func (p *Proc) checkPeer(peer int, verb string) error {
	if peer == p.Rank {
		return fmt.Errorf("replay: p%d %s itself", p.Rank, verb)
	}
	if peer < 0 || peer >= p.N {
		return fmt.Errorf("replay: p%d names peer p%d but deployment has %d processes",
			p.Rank, peer, p.N)
	}
	return nil
}

// begin starts action a with the semantics of built-in action t and reports
// whether the rank parked before the action completed; resume then
// continues it. Errors are trace inconsistencies found before any kernel
// operation.
func (p *Proc) begin(t trace.ActionType, a trace.Action) (parked bool, err error) {
	switch t {
	case trace.Compute:
		// A CPU burst: the paper's example handler creating and executing a
		// SimGrid task of the traced volume.
		p.Sim.ParkExecute(a.Volume)
		p.cont = contDone
		return true, nil
	case trace.Send:
		// A blocking send: synchronous above smpi.EagerThreshold (the
		// sender waits for the transfer), buffered up to it.
		if err := p.checkPeer(a.Peer, "sends to"); err != nil {
			return false, err
		}
		if a.Volume <= smpi.EagerThreshold {
			p.Sim.ISendDetached(p.p2pMbox(p.Rank, a.Peer), a.Volume)
			return false, nil
		}
		p.wait = p.Sim.ISend(p.p2pMbox(p.Rank, a.Peer), a.Volume)
		p.cont = contWait
	case trace.Isend:
		// Following the MSG replay design the message is detached:
		// completion is the network's business.
		if err := p.checkPeer(a.Peer, "Isends to"); err != nil {
			return false, err
		}
		p.Sim.ISendDetached(p.p2pMbox(p.Rank, a.Peer), a.Volume)
		return false, nil
	case trace.Recv:
		if err := p.checkPeer(a.Peer, "receives from"); err != nil {
			return false, err
		}
		p.wait = p.Sim.IRecv(p.p2pMbox(a.Peer, p.Rank))
		p.cont = contWait
	case trace.Irecv:
		// The request joins the rank's FIFO of pending requests consumed by
		// wait actions.
		if err := p.checkPeer(a.Peer, "Irecvs from"); err != nil {
			return false, err
		}
		p.pending.Push(p.Sim.IRecv(p.p2pMbox(a.Peer, p.Rank)))
		return false, nil
	case trace.Wait:
		// Completes the oldest pending asynchronous receive.
		if p.pending.Empty() {
			return false, fmt.Errorf("replay: p%d waits with no pending request", p.Rank)
		}
		p.wait = p.pending.Pop()
		p.cont = contWait
	case trace.WaitAll:
		// The MPI_Waitall of a traced request batch drains the whole FIFO
		// in post order. It implies outstanding requests, so an empty FIFO
		// is a trace inconsistency, diagnosed like a stray wait.
		if p.pending.Empty() {
			return false, fmt.Errorf("replay: p%d waitAlls with no pending request", p.Rank)
		}
		p.cont = contWaitAll
	case trace.CommSize:
		// Validates the communicator size declared by the trace against the
		// deployment, the consistency check the paper's format enables.
		if int(a.Volume) != p.N {
			return false, fmt.Errorf("replay: p%d declares comm_size %d but deployment has %d processes",
				p.Rank, int(a.Volume), p.N)
		}
		return false, nil
	case trace.Bcast:
		// From rank 0 as a set of point-to-point messages, the
		// decomposition the paper chooses over monolithic collective
		// models — by default the linear star, or the algorithm
		// Config.Collectives selects.
		p.startCollective(coll.KindBcast, a.Volume, 0)
	case trace.Reduce:
		// Gathers vcomm bytes to rank 0, then every rank executes the traced
		// reduction work vcomp.
		p.startCollective(coll.KindReduce, a.Volume, a.Volume2)
	case trace.AllReduce:
		// By default a reduce followed by a broadcast of the result, then
		// the local reduction work; recursive-doubling and ring schedules
		// are selectable.
		p.startCollective(coll.KindAllReduce, a.Volume, a.Volume2)
	case trace.Barrier:
		// 1-byte tokens, by default through rank 0.
		p.startCollective(coll.KindBarrier, 0, 0)
	case trace.Gather:
		// One block of the traced volume per rank, collected at rank 0.
		p.startCollective(coll.KindGather, a.Volume, 0)
	case trace.AllGather:
		// Leaves every rank with all blocks.
		p.startCollective(coll.KindAllGather, a.Volume, 0)
	case trace.AllToAll:
		// The personalised all-to-all exchange, as pairwise shifts.
		p.startCollective(coll.KindAllToAll, a.Volume, 0)
	case trace.Scatter:
		// One block per rank, distributed from rank 0.
		p.startCollective(coll.KindScatter, a.Volume, 0)
	default:
		return false, fmt.Errorf("replay: no built-in action %q", t.String())
	}
	return p.resume(), nil
}

// resume continues the action in flight and reports whether the rank
// parked again; once it completes, the rank is between actions.
func (p *Proc) resume() bool {
	parked := false
	switch p.cont {
	case contWait:
		parked = p.await()
	case contWaitAll:
		for {
			if parked = p.await(); parked || p.pending.Empty() {
				break
			}
			p.wait = p.pending.Pop()
		}
	case contColl:
		parked = p.collective()
	}
	if !parked {
		p.cont = contNone
	}
	return parked
}

// await parks on p.wait until it completes, then hands the handle back to
// the kernel pool; a nil p.wait has nothing to wait for.
func (p *Proc) await() bool {
	if p.wait == nil {
		return false
	}
	if p.Sim.ParkComm(p.wait) {
		return true
	}
	p.Sim.ReleaseComm(p.wait)
	p.wait = nil
	return false
}

// startCollective decomposes one traced collective into the point-to-point
// schedule of the configured algorithm (the generalisation of the paper's
// star decomposition), which collective then executes through the world's
// collective pair mailboxes.
func (p *Proc) startCollective(kind coll.Kind, vcomm, vcomp float64) {
	alg := coll.Resolve(kind, p.cfg.Collectives.For(kind), p.cfg.Model, p.N, vcomm)
	p.steps = coll.AppendSchedule(p.steps[:0], kind, alg, p.Rank, p.N, vcomm, vcomp)
	p.step = 0
	p.cont = contColl
}

// collective runs the schedule from p.step, one step at a time: each step's
// transfers complete before the next step starts.
func (p *Proc) collective() bool {
	for {
		for p.wait != nil {
			if p.await() {
				return true
			}
			// A pairwise exchange waits for its send after its receive.
			p.wait, p.shift = p.shift, nil
		}
		if p.step == len(p.steps) {
			return false
		}
		s := &p.steps[p.step]
		p.step++
		switch s.Op {
		case coll.OpSend:
			p.wait = p.Sim.ISend(p.collMbox(p.Rank, s.To), s.Volume)
		case coll.OpRecv:
			p.wait = p.Sim.IRecv(p.collMbox(s.From, p.Rank))
		case coll.OpShift:
			// Pairwise exchange: post the send asynchronously so two ranks
			// shifting to each other cannot deadlock, then complete both.
			p.shift = p.Sim.ISend(p.collMbox(p.Rank, s.To), s.Volume)
			p.wait = p.Sim.IRecv(p.collMbox(s.From, p.Rank))
		case coll.OpCompute:
			p.Sim.ParkExecute(s.Volume)
			return true
		}
	}
}

// builtin returns the Handler of built-in action t, the one Lookup hands
// out: it drives the action's steps from the calling rank's coroutine,
// suspending where a stackless rank would return to the kernel.
func builtin(t trace.ActionType) Handler {
	return func(p *Proc, a trace.Action) error {
		parked, err := p.begin(t, a)
		for parked {
			p.Sim.Suspend()
			parked = p.resume()
		}
		return err
	}
}
