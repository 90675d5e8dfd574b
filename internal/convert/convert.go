// Package convert extracts time-independent traces from TAU binary traces:
// it is the counterpart of the paper's tau2simgrid tool (Section 4.3). The
// extraction walks each rank's trace through the Trace Format Reader
// callbacks and rebuilds the action list of Table 1:
//
//   - the PAPI_FP_OPS triggers bracketing each MPI call delimit the CPU
//     bursts, whose volume becomes a compute action (flops inside MPI calls
//     are ignored for bursts, but the counter delta inside a collective is
//     its computation volume vcomp);
//   - SendMessage records provide the destination and size of send/Isend
//     actions; RecvMessage records provide the source of receives;
//   - the source of an MPI_Irecv is unknown at post time — the RecvMessage
//     appears inside the matching MPI_Wait, so the extractor keeps a queue
//     of pending Irecv actions and back-fills them (the paper's "lookup
//     techniques");
//   - MPI_Comm_size produces the comm_size action that must precede any
//     collective.
package convert

import (
	"fmt"
	"os"
	"path/filepath"

	"tireplay/internal/tau"
	"tireplay/internal/tfr"
	"tireplay/internal/trace"
)

// extractor accumulates the state machine of one rank's extraction.
type extractor struct {
	rank    int
	actions []trace.Action

	inState      int     // current MPI state id, 0 if outside
	papiSamples  int     // PAPI triggers seen in the current state
	entryCounter float64 // PAPI value at state entry
	exitCounter  float64 // last PAPI value seen in state
	lastExit     float64 // PAPI value when the previous state was left

	msgSize    float64 // MsgSize trigger value within the state
	hasMsgSize bool
	sendDst    int
	sendSize   float64
	hasSend    bool
	recvSrc    int
	recvSize   float64
	hasRecv    bool

	pendingIrecv []int // indices of Irecv actions awaiting their source
	err          error
}

func (e *extractor) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("convert: rank %d: %s", e.rank, fmt.Sprintf(format, args...))
	}
}

func (e *extractor) enterState(t float64, node, tid, id int) {
	if e.err != nil {
		return
	}
	if e.inState != 0 {
		e.fail("nested state %d inside %d", id, e.inState)
		return
	}
	e.inState = id
	e.papiSamples = 0
	e.hasMsgSize = false
	e.hasSend = false
	e.hasRecv = false
}

func (e *extractor) eventTrigger(t float64, node, tid, eventID int, value float64) {
	if e.err != nil {
		return
	}
	switch eventID {
	case tau.EventPAPIFlops:
		if e.inState == 0 {
			e.fail("PAPI trigger outside any state")
			return
		}
		if e.papiSamples == 0 {
			e.entryCounter = value
			// The entry sample closes the CPU burst since the last MPI call.
			if burst := value - e.lastExit; burst > 0 {
				e.actions = append(e.actions, trace.Action{
					Proc: e.rank, Type: trace.Compute, Peer: -1, Volume: burst,
				})
			} else if burst < 0 {
				e.fail("PAPI counter went backwards (%g -> %g)", e.lastExit, value)
				return
			}
		}
		e.exitCounter = value
		e.papiSamples++
	case tau.EventMsgSize:
		e.msgSize = value
		e.hasMsgSize = true
	default:
		e.fail("unknown trigger event %d", eventID)
	}
}

func (e *extractor) sendMessage(t float64, node, tid, dst, dstTid int, size float64, tag, comm int) {
	if e.err != nil {
		return
	}
	e.sendDst = dst
	e.sendSize = size
	e.hasSend = true
}

func (e *extractor) recvMessage(t float64, node, tid, src, srcTid int, size float64, tag, comm int) {
	if e.err != nil {
		return
	}
	e.recvSrc = src
	e.recvSize = size
	e.hasRecv = true
}

func (e *extractor) leaveState(t float64, node, tid, id int) {
	if e.err != nil {
		return
	}
	if e.inState != id {
		e.fail("leaving state %d while in %d", id, e.inState)
		return
	}
	add := func(a trace.Action) {
		a.Proc = e.rank
		e.actions = append(e.actions, a)
	}
	vcomp := e.exitCounter - e.entryCounter
	switch id {
	case tau.StateMPISend:
		if !e.hasSend {
			e.fail("MPI_Send without SendMessage record")
			return
		}
		add(trace.Action{Type: trace.Send, Peer: e.sendDst, Volume: e.sendSize})
	case tau.StateMPIIsend:
		if !e.hasSend {
			e.fail("MPI_Isend without SendMessage record")
			return
		}
		add(trace.Action{Type: trace.Isend, Peer: e.sendDst, Volume: e.sendSize})
	case tau.StateMPIRecv:
		if !e.hasRecv {
			e.fail("MPI_Recv without RecvMessage record")
			return
		}
		add(trace.Action{Type: trace.Recv, Peer: e.recvSrc})
	case tau.StateMPIIrecv:
		// Source unknown until the matching MPI_Wait: append a placeholder
		// and remember it for back-filling.
		add(trace.Action{Type: trace.Irecv, Peer: -1})
		e.pendingIrecv = append(e.pendingIrecv, len(e.actions)-1)
	case tau.StateMPIWait:
		if e.hasRecv {
			if len(e.pendingIrecv) == 0 {
				e.fail("MPI_Wait completed a receive with no pending MPI_Irecv")
				return
			}
			idx := e.pendingIrecv[0]
			e.pendingIrecv = e.pendingIrecv[1:]
			e.actions[idx].Peer = e.recvSrc
		}
		add(trace.Action{Type: trace.Wait, Peer: -1})
	case tau.StateMPIBcast:
		if !e.hasMsgSize {
			e.fail("MPI_Bcast without size trigger")
			return
		}
		add(trace.Action{Type: trace.Bcast, Peer: -1, Volume: e.msgSize})
	case tau.StateMPIReduce:
		if !e.hasMsgSize {
			e.fail("MPI_Reduce without size trigger")
			return
		}
		add(trace.Action{Type: trace.Reduce, Peer: -1, Volume: e.msgSize, Volume2: vcomp})
	case tau.StateMPIAllreduce:
		if !e.hasMsgSize {
			e.fail("MPI_Allreduce without size trigger")
			return
		}
		add(trace.Action{Type: trace.AllReduce, Peer: -1, Volume: e.msgSize, Volume2: vcomp})
	case tau.StateMPIBarrier:
		add(trace.Action{Type: trace.Barrier, Peer: -1})
	case tau.StateMPICommSize:
		if !e.hasMsgSize {
			e.fail("MPI_Comm_size without size trigger")
			return
		}
		add(trace.Action{Type: trace.CommSize, Peer: -1, Volume: e.msgSize})
	case tau.StateMPIInit, tau.StateMPIFinalize:
		// No time-independent action.
	default:
		e.fail("unknown state %d", id)
		return
	}
	e.lastExit = e.exitCounter
	e.inState = 0
}

func (e *extractor) endTrace(node, tid int) {
	if e.err != nil {
		return
	}
	if e.inState != 0 {
		e.fail("trace ended inside state %d", e.inState)
		return
	}
	if len(e.pendingIrecv) != 0 {
		e.fail("%d MPI_Irecv never completed by an MPI_Wait", len(e.pendingIrecv))
	}
}

// ExtractProcess extracts the time-independent actions of one rank from its
// TAU trace and event files.
func ExtractProcess(rank int, trcPath, edfPath string) ([]trace.Action, error) {
	e := &extractor{rank: rank}
	cb := tfr.Callbacks{
		EnterState:   e.enterState,
		LeaveState:   e.leaveState,
		EventTrigger: e.eventTrigger,
		SendMessage:  e.sendMessage,
		RecvMessage:  e.recvMessage,
		EndTrace:     e.endTrace,
	}
	if err := tfr.ReadFiles(trcPath, edfPath, cb); err != nil {
		return nil, err
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.actions, nil
}

// ExtractDir extracts every rank of an acquisition directory laid out with
// the TAU file naming convention, processing ranks concurrently on
// trace.EachRank — the paper's tau2simgrid is itself a parallel
// application. It returns the per-rank action lists. The ranks' files are
// looked up in rank order up to the first missing one, so a count past the
// acquisition costs one failed lookup, not a table or a goroutine per
// requested rank. A failure returns what extracting the ranks one by one
// would: the error of the lowest rank that fails to extract, else the
// missing rank's.
func ExtractDir(dir string, nprocs int) ([][]trace.Action, error) {
	var trcs, edfs []string
	var missing error
	for r := 0; r < nprocs; r++ {
		trc, edf := filepath.Join(dir, tau.TraceFileName(r)), filepath.Join(dir, tau.EventFileName(r))
		// Opened in the order tfr.ReadFiles opens them, so a missing file
		// fails with the error its extraction would.
		if missing = probe(edf); missing == nil {
			missing = probe(trc)
		}
		if missing != nil {
			break
		}
		trcs, edfs = append(trcs, trc), append(edfs, edf)
	}
	out := make([][]trace.Action, len(trcs))
	err := trace.EachRank(len(trcs), func(r int) (err error) {
		out[r], err = ExtractProcess(r, trcs[r], edfs[r])
		return err
	})
	if err == nil {
		err = missing
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// probe opens path and closes it again.
func probe(path string) error {
	f, err := os.Open(path)
	if err == nil {
		f.Close() // only opened, never read
	}
	return err
}

// Flatten concatenates per-rank action lists in rank order, the layout used
// when writing a single merged trace file.
func Flatten(perRank [][]trace.Action) []trace.Action {
	var total int
	for _, a := range perRank {
		total += len(a)
	}
	out := make([]trace.Action, 0, total)
	for _, a := range perRank {
		out = append(out, a...)
	}
	return out
}
