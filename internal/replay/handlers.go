package replay

import (
	"fmt"

	"tireplay/internal/coll"
	"tireplay/internal/simx"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// p2pMbox resolves the mailbox of src-to-dst point-to-point traffic from
// the world's pair table, created on the pair's first message.
func (p *Proc) p2pMbox(src, dst int) simx.MailboxID {
	return p.world.pairMbox(&p.world.p2p, src, dst)
}

// collMbox resolves the mailbox of the (src,dst) leg of collective round
// seq from the world's round table. Every process executes the same
// sequence of collective actions (an MPI requirement), so the per-process
// sequence counter identifies matching rounds globally and the ID derives
// from it.
func (p *Proc) collMbox(seq int64, src, dst int) simx.MailboxID {
	return p.world.pairMbox(&p.world.round(seq).pairs, src, dst)
}

// runCollective decomposes one traced collective into the point-to-point
// schedule of the configured algorithm and executes it through the mailbox
// machinery: the generalisation of the paper's star decomposition. The
// schedule is a pure function of (rank, world size, volume), so every rank
// reserves the same span of round numbers and the rendezvous mailboxes
// derive from the shared counter exactly as before — multi-round algorithms
// simply consume several seqs per collective.
func (p *Proc) runCollective(kind coll.Kind, vcomm, vcomp float64) error {
	alg := coll.Resolve(kind, p.cfg.Collectives.For(kind), p.cfg.Model, p.N, vcomm)
	rounds := coll.Rounds(kind, alg, p.N)
	base := p.reserveColl(rounds)
	p.steps = coll.AppendSchedule(p.steps[:0], kind, alg, p.Rank, p.N, vcomm, vcomp)
	for i := range p.steps {
		s := &p.steps[i]
		switch s.Op {
		case coll.OpSend:
			p.Sim.Send(p.collMbox(base+int64(s.Round), p.Rank, s.To), s.Volume)
		case coll.OpRecv:
			p.Sim.Recv(p.collMbox(base+int64(s.Round), s.From, p.Rank))
		case coll.OpShift:
			// Pairwise exchange: post the send asynchronously so two ranks
			// shifting to each other cannot deadlock, then complete both.
			c := p.Sim.ISend(p.collMbox(base+int64(s.Round), p.Rank, s.To), s.Volume)
			p.Sim.Recv(p.collMbox(base+int64(s.Round), s.From, p.Rank))
			p.Sim.WaitComm(c)
			p.Sim.ReleaseComm(c)
		case coll.OpCompute:
			p.Sim.Execute(s.Volume)
		}
	}
	// All of this rank's transfers in [base, base+rounds) have completed
	// (every step above blocks); once the last rank passes here the rounds'
	// mailboxes are drained and recycle.
	p.world.release(base, rounds)
	return nil
}

// handleCompute simulates a CPU burst: the paper's example handler creating
// and executing a SimGrid task of the traced volume.
func handleCompute(p *Proc, a trace.Action) error {
	p.Sim.Execute(a.Volume)
	return nil
}

// checkPeer rejects peers outside the deployment: the run loop does not
// re-validate actions (a custom Source can hand over anything), and the pair
// table keys src*n+dst alias across ranks for an out-of-range peer, so such
// a peer — in either direction — must fail with a diagnostic rather than
// meet a stranger's traffic or a bare deadlock.
func (p *Proc) checkPeer(peer int) error {
	if peer < 0 || peer >= p.N {
		return fmt.Errorf("replay: p%d names peer p%d but deployment has %d processes",
			p.Rank, peer, p.N)
	}
	return nil
}

// handleSend simulates a blocking send: synchronous above
// smpi.EagerThreshold (the sender waits for the transfer), buffered up to
// it.
func handleSend(p *Proc, a trace.Action) error {
	if a.Peer == p.Rank {
		return fmt.Errorf("replay: p%d sends to itself", p.Rank)
	}
	if err := p.checkPeer(a.Peer); err != nil {
		return err
	}
	if a.Volume <= smpi.EagerThreshold {
		p.Sim.ISendDetached(p.p2pMbox(p.Rank, a.Peer), a.Volume)
		return nil
	}
	p.Sim.Send(p.p2pMbox(p.Rank, a.Peer), a.Volume)
	return nil
}

// handleIsend simulates an asynchronous send; following the MSG replay
// design the message is detached — completion is the network's business.
func handleIsend(p *Proc, a trace.Action) error {
	if a.Peer == p.Rank {
		return fmt.Errorf("replay: p%d Isends to itself", p.Rank)
	}
	if err := p.checkPeer(a.Peer); err != nil {
		return err
	}
	p.Sim.ISendDetached(p.p2pMbox(p.Rank, a.Peer), a.Volume)
	return nil
}

// handleRecv simulates a blocking receive from the traced source.
func handleRecv(p *Proc, a trace.Action) error {
	if err := p.checkPeer(a.Peer); err != nil {
		return err
	}
	p.Sim.Recv(p.p2pMbox(a.Peer, p.Rank))
	return nil
}

// handleIrecv posts an asynchronous receive; the request joins the rank's
// FIFO of pending requests consumed by wait actions.
func handleIrecv(p *Proc, a trace.Action) error {
	if err := p.checkPeer(a.Peer); err != nil {
		return err
	}
	p.pending.Push(p.Sim.IRecv(p.p2pMbox(a.Peer, p.Rank)))
	return nil
}

// handleWait completes the oldest pending asynchronous receive and returns
// the consumed handle to the kernel pool.
func handleWait(p *Proc, a trace.Action) error {
	if p.pending.Empty() {
		return fmt.Errorf("replay: p%d waits with no pending request", p.Rank)
	}
	h := p.pending.Pop()
	p.Sim.WaitComm(h)
	p.Sim.ReleaseComm(h)
	return nil
}

// handleWaitAll drains the whole pending-request FIFO in post order,
// releasing every handle — the MPI_Waitall of a traced request batch. A
// traced waitAll implies outstanding requests, so an empty FIFO is a trace
// inconsistency, diagnosed like a stray wait.
func handleWaitAll(p *Proc, a trace.Action) error {
	if p.pending.Empty() {
		return fmt.Errorf("replay: p%d waitAlls with no pending request", p.Rank)
	}
	for !p.pending.Empty() {
		h := p.pending.Pop()
		p.Sim.WaitComm(h)
		p.Sim.ReleaseComm(h)
	}
	return nil
}

// handleBcast broadcasts from rank 0 as a set of point-to-point messages,
// the decomposition the paper chooses over monolithic collective models —
// by default the linear star, or the algorithm Config.Collectives selects.
func handleBcast(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindBcast, a.Volume, 0)
}

// handleReduce gathers vcomm bytes to rank 0, then every rank executes the
// traced reduction work vcomp.
func handleReduce(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindReduce, a.Volume, a.Volume2)
}

// handleAllReduce is by default a reduce followed by a broadcast of the
// result, then the local reduction work; recursive-doubling and ring
// schedules are selectable.
func handleAllReduce(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindAllReduce, a.Volume, a.Volume2)
}

// handleBarrier synchronises with 1-byte tokens, by default through rank 0.
func handleBarrier(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindBarrier, 0, 0)
}

// handleGather collects one block of the traced volume per rank at rank 0.
func handleGather(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindGather, a.Volume, 0)
}

// handleAllGather leaves every rank with all blocks.
func handleAllGather(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindAllGather, a.Volume, 0)
}

// handleAllToAll performs the personalised all-to-all exchange as pairwise
// shifts.
func handleAllToAll(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindAllToAll, a.Volume, 0)
}

// handleScatter distributes one block per rank from rank 0.
func handleScatter(p *Proc, a trace.Action) error {
	return p.runCollective(coll.KindScatter, a.Volume, 0)
}

// handleCommSize validates the communicator size declared by the trace
// against the deployment, the consistency check the paper's format enables.
func handleCommSize(p *Proc, a trace.Action) error {
	if int(a.Volume) != p.N {
		return fmt.Errorf("replay: p%d declares comm_size %d but deployment has %d processes",
			p.Rank, int(a.Volume), p.N)
	}
	return nil
}

// interface check: all default handlers match the Handler signature.
var _ = []Handler{
	handleCompute, handleSend, handleIsend, handleRecv, handleIrecv,
	handleWait, handleWaitAll, handleBcast, handleReduce, handleAllReduce,
	handleBarrier, handleGather, handleAllGather, handleAllToAll,
	handleScatter, handleCommSize,
}
