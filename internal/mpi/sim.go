package mpi

import (
	"fmt"

	"tireplay/internal/platform"
	"tireplay/internal/simx"
	"tireplay/internal/smpi"
)

// SimConfig parameterises the simulation engine.
type SimConfig struct {
	// Rate modulates the flop rate per burst (nil = constant host speed).
	Rate RateMultiplier
	// MessageCPUTime is the CPU time one message endpoint costs (protocol
	// processing in the MPI stack), in seconds of exclusive host use.
	// Under folding this work shares the CPU like any computation — the
	// mechanism that makes the folded acquisition times of Table 2 grow
	// linearly with the folding factor. Default 8 microseconds; negative
	// disables it.
	MessageCPUTime float64
}

func (c *SimConfig) setDefaults() {
	switch {
	case c.MessageCPUTime == 0:
		c.MessageCPUTime = 8e-6
	case c.MessageCPUTime < 0:
		c.MessageCPUTime = 0
	}
}

// simComm is the per-rank communicator of the simulation engine: every MPI
// operation maps onto kernel activities, so the execution experiences the
// platform's CPU sharing and network contention.
type simComm struct {
	p     *simx.Proc
	me    int
	n     int
	cfg   *SimConfig
	flops float64
	seq   int64

	// mboxes is the world's table of ordered-pair mailboxes, shared by every
	// rank: entry src*n+dst, -1 until the pair's first message.
	mboxes []simx.MailboxID
}

var _ Comm = (*simComm)(nil)

// simRequest implements Request for the simulation engine.
type simRequest struct {
	isRecv bool
	peer   int
	bytes  float64
	comm   *simx.Comm // nil for eager (already completed) sends
}

// mbox returns the mailbox of src-to-dst traffic, creating it on the pair's
// first message; the sender and the receiver resolve the pair to the same
// table entry.
func (c *simComm) mbox(src, dst int) simx.MailboxID {
	i := src*c.n + dst
	if c.mboxes[i] < 0 {
		c.mboxes[i] = c.p.Kernel().NewMailbox()
	}
	return c.mboxes[i]
}

func (c *simComm) Rank() int          { return c.me }
func (c *simComm) Size() int          { return c.n }
func (c *simComm) Now() float64       { return c.p.Now() }
func (c *simComm) FlopCount() float64 { return c.flops }

func (c *simComm) rank() int { return c.me }
func (c *simComm) size() int { return c.n }

func (c *simComm) addFlops(f float64) { c.flops += f }

func (c *simComm) computeRaw(flops float64) {
	mult := 1.0
	if m := c.cfg.Rate; m != nil {
		mult = m(c.me, c.seq, flops)
	}
	c.seq++
	if mult <= 0 {
		panic(fmt.Sprintf("mpi: rate multiplier %g", mult))
	}
	c.p.Execute(flops / mult)
}

func (c *simComm) Compute(flops float64) {
	if flops < 0 {
		panic(fmt.Sprintf("mpi: negative compute volume %g", flops))
	}
	c.flops += flops
	c.computeRaw(flops)
}

func (c *simComm) Delay(seconds float64) {
	if seconds > 0 {
		c.p.Sleep(seconds)
	}
}

// chargeMessageCPU accounts for the protocol-processing cost of one message
// endpoint: CPU work that folded processes serialise on.
func (c *simComm) chargeMessageCPU() {
	if c.cfg.MessageCPUTime > 0 {
		c.p.Execute(c.cfg.MessageCPUTime * c.p.Host().Speed)
	}
}

func (c *simComm) sendRaw(dst int, bytes float64) {
	validRank("send to", dst, c.n)
	c.chargeMessageCPU()
	if bytes <= smpi.EagerThreshold {
		c.p.ISendDetached(c.mbox(c.me, dst), bytes)
		return
	}
	c.p.Send(c.mbox(c.me, dst), bytes)
}

func (c *simComm) recvRaw(src int) float64 {
	validRank("receive from", src, c.n)
	h := c.p.IRecv(c.mbox(src, c.me))
	c.p.WaitComm(h)
	c.chargeMessageCPU()
	return h.Bytes()
}

func (c *simComm) Send(dst int, bytes float64) { c.sendRaw(dst, bytes) }

func (c *simComm) Isend(dst int, bytes float64) Request {
	validRank("isend to", dst, c.n)
	c.chargeMessageCPU()
	if bytes <= smpi.EagerThreshold {
		c.p.ISendDetached(c.mbox(c.me, dst), bytes)
		return &simRequest{peer: dst, bytes: bytes}
	}
	return &simRequest{
		peer:  dst,
		bytes: bytes,
		comm:  c.p.ISend(c.mbox(c.me, dst), bytes),
	}
}

func (c *simComm) Recv(src int) float64 { return c.recvRaw(src) }

func (c *simComm) Irecv(src int) Request {
	validRank("irecv from", src, c.n)
	return &simRequest{
		isRecv: true,
		peer:   src,
		comm:   c.p.IRecv(c.mbox(src, c.me)),
	}
}

func (c *simComm) Wait(req Request) Completion {
	r, ok := req.(*simRequest)
	if !ok {
		panic("mpi: foreign request handed to simulation engine")
	}
	if r.comm != nil {
		c.p.WaitComm(r.comm)
		if r.isRecv {
			r.bytes = r.comm.Bytes()
			c.chargeMessageCPU()
		}
	}
	return Completion{IsRecv: r.isRecv, Peer: r.peer, Bytes: r.bytes}
}

func (c *simComm) Bcast(bytes float64)            { bcast(c, bytes) }
func (c *simComm) Reduce(vcomm, vcomp float64)    { reduce(c, vcomm, vcomp) }
func (c *simComm) Allreduce(vcomm, vcomp float64) { allreduce(c, vcomm, vcomp) }
func (c *simComm) Barrier()                       { barrier(c) }

// RunSim executes the program on the simulation engine: one rank per process
// of the deployment, placed on the platform's hosts. It returns the
// simulated makespan.
func RunSim(b *platform.Build, depl *platform.Deployment, cfg SimConfig, prog Program) (float64, error) {
	return RunSimWrapped(b, depl, cfg, nil, prog)
}

// RunSimWrapped is RunSim with a per-rank communicator decorator (the
// instrumentation hook used by the TAU layer). wrap may be nil.
func RunSimWrapped(b *platform.Build, depl *platform.Deployment, cfg SimConfig,
	wrap func(rank int, c Comm) Comm, prog Program) (float64, error) {

	n := len(depl.Processes)
	if n == 0 {
		return 0, fmt.Errorf("mpi: empty deployment")
	}
	cfg.setDefaults()
	k := b.Kernel
	mboxes := make([]simx.MailboxID, n*n)
	for i := range mboxes {
		mboxes[i] = -1
	}
	for i, pd := range depl.Processes {
		host := k.Host(pd.Host)
		if host == nil {
			return 0, fmt.Errorf("mpi: deployment host %q not in platform", pd.Host)
		}
		rank := i
		k.Spawn(pd.Function, host, func(p *simx.Proc) {
			var c Comm = &simComm{p: p, me: rank, n: n, cfg: &cfg, mboxes: mboxes}
			if wrap != nil {
				c = wrap(rank, c)
			}
			prog(c)
		})
	}
	return k.Run()
}
