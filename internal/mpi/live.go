package mpi

import (
	"fmt"
	"math"
	"sync"

	"tireplay/internal/smpi"
)

// LiveConfig parameterises the live (goroutine) engine.
type LiveConfig struct {
	// Procs is the number of ranks.
	Procs int
	// FlopRate is the baseline compute speed in flop/s (default 1e9).
	FlopRate float64
	// Latency is the one-way message latency in seconds (default 50 us,
	// i.e. three 16.67 us hops as on a switched cluster).
	Latency float64
	// Bandwidth is the point-to-point bandwidth in B/s (default 1.25e8).
	Bandwidth float64
	// Rate modulates the flop rate per burst (nil = constant rate).
	Rate RateMultiplier
}

func (c *LiveConfig) setDefaults() {
	if c.FlopRate == 0 {
		c.FlopRate = 1e9
	}
	if c.Latency == 0 {
		c.Latency = 3 * 16.67e-6
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1.25e8
	}
}

// liveMsg is an unmatched send posted to a pair box.
type liveMsg struct {
	bytes     float64
	sendClock float64      // sender clock when the message was posted
	ack       chan float64 // rendezvous only: transfer end back to sender
}

// matchResult is what a receive learns when its message is matched.
type matchResult struct {
	bytes float64
	end   float64 // receiver-side completion time
}

// postedRecv is an unmatched receive posted to a pair box. Posting time is
// what rendezvous transfers synchronise on: an MPI_Irecv makes the buffer
// available at post time, allowing communication/computation overlap.
type postedRecv struct {
	postClock float64
	matched   chan matchResult // cap 1; filled exactly once at match time
}

// pairBox holds the unmatched sends and receives of one (src, dst) pair.
// Matching is FIFO on both sides: the k-th send always pairs with the k-th
// posted receive, so virtual times are deterministic no matter how the
// goroutines interleave in real time.
type pairBox struct {
	mu    sync.Mutex
	sends []*liveMsg
	recvs []*postedRecv
}

// liveWorld owns the per-pair boxes.
type liveWorld struct {
	cfg   LiveConfig
	mu    sync.Mutex
	boxes map[int]*pairBox
}

func (w *liveWorld) box(src, dst int) *pairBox {
	key := src*w.cfg.Procs + dst
	w.mu.Lock()
	b := w.boxes[key]
	if b == nil {
		b = &pairBox{}
		w.boxes[key] = b
	}
	w.mu.Unlock()
	return b
}

// transferTime is the latency+bandwidth cost of a message.
func (w *liveWorld) transferTime(bytes float64) float64 {
	return w.cfg.Latency + bytes/w.cfg.Bandwidth
}

// match joins a send and a receive and computes the completion times. For
// eager messages the transfer was already under way: it completes at
// sendClock + size/bw regardless of the receiver. For rendezvous messages
// the transfer starts when both sides are ready — max(sendClock, postClock)
// — and the sender learns the end through its ack channel.
func (w *liveWorld) match(msg *liveMsg, pr *postedRecv) {
	if msg.ack == nil {
		pr.matched <- matchResult{bytes: msg.bytes, end: msg.sendClock + msg.bytes/w.cfg.Bandwidth}
		return
	}
	end := math.Max(msg.sendClock, pr.postClock) + w.transferTime(msg.bytes)
	msg.ack <- end
	pr.matched <- matchResult{bytes: msg.bytes, end: end}
}

// postSend adds a send to the pair box, matching it immediately when a
// receive is already pending.
func (w *liveWorld) postSend(src, dst int, msg *liveMsg) {
	b := w.box(src, dst)
	b.mu.Lock()
	if len(b.recvs) > 0 {
		pr := b.recvs[0]
		b.recvs = b.recvs[1:]
		b.mu.Unlock()
		w.match(msg, pr)
		return
	}
	b.sends = append(b.sends, msg)
	b.mu.Unlock()
}

// postRecv adds a receive to the pair box, matching it immediately when a
// send is already pending.
func (w *liveWorld) postRecv(src, dst int, pr *postedRecv) {
	b := w.box(src, dst)
	b.mu.Lock()
	if len(b.sends) > 0 {
		msg := b.sends[0]
		b.sends = b.sends[1:]
		b.mu.Unlock()
		w.match(msg, pr)
		return
	}
	b.recvs = append(b.recvs, pr)
	b.mu.Unlock()
}

// liveComm is the per-rank communicator of the live engine.
type liveComm struct {
	w     *liveWorld
	me    int
	clock float64
	flops float64
	seq   int64
}

var _ Comm = (*liveComm)(nil)

// liveRequest implements Request for the live engine.
type liveRequest struct {
	isRecv bool
	peer   int
	bytes  float64
	ack    chan float64 // rendezvous send: transfer-end reply
	pr     *postedRecv  // receive: the posted request
	done   bool
}

func (c *liveComm) Rank() int          { return c.me }
func (c *liveComm) Size() int          { return c.w.cfg.Procs }
func (c *liveComm) Now() float64       { return c.clock }
func (c *liveComm) FlopCount() float64 { return c.flops }

func (c *liveComm) rank() int { return c.me }
func (c *liveComm) size() int { return c.w.cfg.Procs }

func (c *liveComm) addFlops(f float64) { c.flops += f }

func (c *liveComm) computeRaw(flops float64) {
	rate := c.w.cfg.FlopRate
	if m := c.w.cfg.Rate; m != nil {
		rate *= m(c.me, c.seq, flops)
	}
	c.seq++
	c.clock += flops / rate
}

func (c *liveComm) Compute(flops float64) {
	if flops < 0 {
		panic(fmt.Sprintf("mpi: negative compute volume %g", flops))
	}
	c.flops += flops
	c.computeRaw(flops)
}

func (c *liveComm) Delay(seconds float64) {
	if seconds > 0 {
		c.clock += seconds
	}
}

func (c *liveComm) sendRaw(dst int, bytes float64) {
	validRank("send to", dst, c.Size())
	if dst == c.me {
		panic("mpi: self message")
	}
	if bytes <= smpi.EagerThreshold {
		// Eager: the sender only pays the injection overhead; the message
		// completes on the receiver side from its own send clock.
		c.clock += c.w.cfg.Latency
		c.w.postSend(c.me, dst, &liveMsg{bytes: bytes, sendClock: c.clock})
		return
	}
	// Rendezvous: the transfer starts when both sides are ready and the
	// sender blocks until it completes (MPI synchronous mode).
	msg := &liveMsg{bytes: bytes, sendClock: c.clock, ack: make(chan float64, 1)}
	c.w.postSend(c.me, dst, msg)
	c.clock = math.Max(c.clock, <-msg.ack)
}

func (c *liveComm) recvRaw(src int) float64 {
	validRank("receive from", src, c.Size())
	pr := &postedRecv{postClock: c.clock, matched: make(chan matchResult, 1)}
	c.w.postRecv(src, c.me, pr)
	res := <-pr.matched
	c.clock = math.Max(c.clock, res.end)
	return res.bytes
}

func (c *liveComm) Send(dst int, bytes float64) { c.sendRaw(dst, bytes) }

func (c *liveComm) Isend(dst int, bytes float64) Request {
	validRank("isend to", dst, c.Size())
	if bytes <= smpi.EagerThreshold {
		c.clock += c.w.cfg.Latency
		c.w.postSend(c.me, dst, &liveMsg{bytes: bytes, sendClock: c.clock})
		return &liveRequest{peer: dst, bytes: bytes, done: true}
	}
	msg := &liveMsg{bytes: bytes, sendClock: c.clock, ack: make(chan float64, 1)}
	c.w.postSend(c.me, dst, msg)
	return &liveRequest{peer: dst, bytes: bytes, ack: msg.ack}
}

func (c *liveComm) Recv(src int) float64 { return c.recvRaw(src) }

func (c *liveComm) Irecv(src int) Request {
	validRank("irecv from", src, c.Size())
	pr := &postedRecv{postClock: c.clock, matched: make(chan matchResult, 1)}
	c.w.postRecv(src, c.me, pr)
	return &liveRequest{isRecv: true, peer: src, pr: pr}
}

func (c *liveComm) Wait(req Request) Completion {
	r, ok := req.(*liveRequest)
	if !ok {
		panic("mpi: foreign request handed to live engine")
	}
	if r.isRecv {
		if !r.done {
			res := <-r.pr.matched
			c.clock = math.Max(c.clock, res.end)
			r.bytes = res.bytes
			r.done = true
		}
		return Completion{IsRecv: true, Peer: r.peer, Bytes: r.bytes}
	}
	if !r.done {
		end := <-r.ack
		c.clock = math.Max(c.clock, end)
		r.done = true
	}
	return Completion{Peer: r.peer, Bytes: r.bytes}
}

func (c *liveComm) Bcast(bytes float64)            { bcast(c, bytes) }
func (c *liveComm) Reduce(vcomm, vcomp float64)    { reduce(c, vcomm, vcomp) }
func (c *liveComm) Allreduce(vcomm, vcomp float64) { allreduce(c, vcomm, vcomp) }
func (c *liveComm) Barrier()                       { barrier(c) }

// RunLive executes the program on the live engine and returns the makespan:
// the largest rank clock after every rank finished.
func RunLive(cfg LiveConfig, prog Program) (float64, error) {
	return RunLiveWrapped(cfg, nil, prog)
}

// RunLiveWrapped is RunLive with a per-rank communicator decorator (the
// instrumentation hook used by the TAU layer). wrap may be nil.
func RunLiveWrapped(cfg LiveConfig, wrap func(rank int, c Comm) Comm, prog Program) (float64, error) {
	if cfg.Procs <= 0 {
		return 0, fmt.Errorf("mpi: world size %d", cfg.Procs)
	}
	cfg.setDefaults()
	w := &liveWorld{cfg: cfg, boxes: make(map[int]*pairBox)}
	comms := make([]*liveComm, cfg.Procs)
	errs := make([]error, cfg.Procs)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Procs; r++ {
		comms[r] = &liveComm{w: w, me: r}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			var c Comm = comms[r]
			if wrap != nil {
				c = wrap(r, c)
			}
			prog(c)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	makespan := 0.0
	for _, c := range comms {
		makespan = math.Max(makespan, c.clock)
	}
	return makespan, nil
}
