package mpi

import (
	"fmt"

	"tireplay/internal/trace"
)

// recordComm is the trace-generator engine: it executes a single rank of a
// program without any peers and records the time-independent actions the
// acquisition pipeline would extract. This works because the control flow
// of the supported applications does not depend on message contents (the
// off-line approach already assumes non-adaptive applications, Section 3),
// so one rank can be unrolled in isolation — which makes generating exact
// traces for very large instances (the class D / 1024-process acquisition
// of Section 6.5) cheap.
type recordComm struct {
	me      int
	n       int
	actions []trace.Action
	flops   float64
	clock   float64
	onEmit  func(trace.Action) error
	err     error
}

var _ Comm = (*recordComm)(nil)

type recordRequest struct {
	isRecv bool
	peer   int
	bytes  float64
}

func (c *recordComm) emit(a trace.Action) {
	if c.err != nil {
		return
	}
	a.Proc = c.me
	if c.onEmit != nil {
		if err := c.onEmit(a); err != nil {
			c.err = err
		}
		return
	}
	c.actions = append(c.actions, a)
}

// emitBurst flushes the pending CPU burst before an MPI action, mirroring
// how the extractor derives compute actions from PAPI counter differences.
func (c *recordComm) emitBurst() {
	if c.flops > 0 {
		c.emit(trace.Action{Type: trace.Compute, Peer: -1, Volume: c.flops})
		c.flops = 0
	}
}

func (c *recordComm) Rank() int          { return c.me }
func (c *recordComm) Size() int          { return c.n }
func (c *recordComm) Now() float64       { return c.clock }
func (c *recordComm) FlopCount() float64 { return c.flops }

func (c *recordComm) Compute(flops float64) { c.flops += flops }
func (c *recordComm) Delay(seconds float64) { c.clock += seconds }

func (c *recordComm) Send(dst int, bytes float64) {
	validRank("send to", dst, c.n)
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Send, Peer: dst, Volume: bytes})
}

func (c *recordComm) Isend(dst int, bytes float64) Request {
	validRank("isend to", dst, c.n)
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Isend, Peer: dst, Volume: bytes})
	return &recordRequest{peer: dst, bytes: bytes}
}

func (c *recordComm) Recv(src int) float64 {
	validRank("receive from", src, c.n)
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Recv, Peer: src})
	return 0
}

func (c *recordComm) Irecv(src int) Request {
	validRank("irecv from", src, c.n)
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Irecv, Peer: src})
	return &recordRequest{isRecv: true, peer: src}
}

func (c *recordComm) Wait(req Request) Completion {
	r, ok := req.(*recordRequest)
	if !ok {
		panic("mpi: foreign request handed to recorder engine")
	}
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Wait, Peer: -1})
	return Completion{IsRecv: r.isRecv, Peer: r.peer, Bytes: r.bytes}
}

func (c *recordComm) Bcast(bytes float64) {
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Bcast, Peer: -1, Volume: bytes})
}

func (c *recordComm) Reduce(vcomm, vcomp float64) {
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Reduce, Peer: -1, Volume: vcomm, Volume2: vcomp})
}

func (c *recordComm) Allreduce(vcomm, vcomp float64) {
	c.emitBurst()
	c.emit(trace.Action{Type: trace.AllReduce, Peer: -1, Volume: vcomm, Volume2: vcomp})
}

func (c *recordComm) Barrier() {
	c.emitBurst()
	c.emit(trace.Action{Type: trace.Barrier, Peer: -1})
}

// Record unrolls one rank of a program and returns the time-independent
// actions its acquisition would produce, including the leading comm_size.
func Record(rank, size int, prog Program) ([]trace.Action, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d outside world of size %d", rank, size)
	}
	c := &recordComm{me: rank, n: size}
	c.emit(trace.Action{Type: trace.CommSize, Peer: -1, Volume: float64(size)})
	if err := runRecorded(c, prog); err != nil {
		return nil, err
	}
	c.emitBurst() // trailing burst, closed by MPI_Finalize in the real flow
	return c.actions, c.err
}

// RecordAll records every rank of a size-rank world (Record) on
// trace.EachRank: the live engine already runs a program's ranks
// concurrently, so prog must be safe to run on several goroutines at once.
// A failure returns the lowest failed rank's error.
func RecordAll(size int, prog Program) ([][]trace.Action, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	perRank := make([][]trace.Action, size)
	err := trace.EachRank(size, func(r int) (err error) {
		perRank[r], err = Record(r, size, prog)
		return err
	})
	if err != nil {
		return nil, err
	}
	return perRank, nil
}

// RecordStream is Record with a streaming sink instead of an in-memory
// slice, for traces too large to materialise.
func RecordStream(rank, size int, prog Program, emit func(trace.Action) error) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mpi: rank %d outside world of size %d", rank, size)
	}
	c := &recordComm{me: rank, n: size, onEmit: emit}
	c.emit(trace.Action{Type: trace.CommSize, Peer: -1, Volume: float64(size)})
	if err := runRecorded(c, prog); err != nil {
		return err
	}
	c.emitBurst()
	return c.err
}

// runRecorded executes prog, converting panics into errors (the recorder is
// used on huge instances where a crash should surface cleanly).
func runRecorded(c *recordComm, prog Program) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mpi: recorded rank %d panicked: %v", c.me, p)
		}
	}()
	prog(c)
	return nil
}
