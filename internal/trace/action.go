// Package trace implements the time-independent trace format at the heart
// of the paper (Section 3): the execution of an MPI application is logged as
// a list of actions per process, where each action records the *volume* of
// the operation — a number of floating-point operations for CPU bursts, a
// number of bytes for communications — instead of a time-stamp. Volumes do
// not depend on the host platform, which decouples trace acquisition from
// trace replay.
//
// The package provides the action model of Table 1, the textual codec used
// throughout the paper (Figure 1), a compact binary codec (the future-work
// item of Section 7), gzip containers, per-process file handling and trace
// statistics.
//
// # Binary images and memory-mapped traces
//
// The binary codec is also the in-memory form of a trace. An image is a
// whole trace held as binary records, header included: EncodeText and
// ReadImage encode text and gzip traces into one at load, through the
// codec's one encoder (AppendBinary), so an image is byte-identical to the
// .tib file of the same actions and costs about 7.5 B per action instead of
// the 48 B of a decoded Action. A BinaryCursor decodes an image in place,
// one record at a time, and validates every record it yields.
//
// Binary (.tib) traces can be opened through OpenMapped/ReadFileMapped: the
// file is memory-mapped read-only and records are decoded in place by a
// BinaryCursor, so loading a trace costs no read-ahead copy and replay
// startup is bounded by I/O alone. The mmap path is build-tagged for the
// platforms with a wired mmap syscall (mmap_unix.go: linux, darwin and the
// BSDs); every other platform — and any file the kernel refuses to map —
// degrades transparently to a portable read-the-file fallback
// (mmap_fallback.go) with the identical interface and decoding path.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ActionType enumerates the time-independent counterparts of the MPI
// operations supported by the prototype (Table 1 of the paper).
type ActionType uint8

const (
	// Compute is a CPU burst: "<id> compute <volume>" with volume in flops.
	Compute ActionType = iota
	// Send is a blocking send: "<id> send <dst_id> <volume>".
	Send
	// Isend is an asynchronous send: "<id> Isend <dst_id> <volume>".
	Isend
	// Recv is a blocking receive: "<id> recv <src_id> [<volume>]".
	Recv
	// Irecv is an asynchronous receive: "<id> Irecv <src_id> [<volume>]".
	Irecv
	// Bcast is a broadcast rooted at process 0: "<id> bcast <volume>".
	Bcast
	// Reduce is a reduction to process 0: "<id> reduce <vcomm> <vcomp>".
	Reduce
	// AllReduce is "<id> allReduce <vcomm> <vcomp>".
	AllReduce
	// Barrier is "<id> barrier".
	Barrier
	// CommSize declares the communicator size before any collective:
	// "<id> comm_size <nproc>".
	CommSize
	// Wait completes the oldest pending asynchronous request: "<id> wait".
	Wait
	// Gather collects one block per rank at process 0:
	// "<id> gather <volume>" with volume the per-rank contribution in bytes.
	Gather
	// AllGather leaves every rank with all blocks: "<id> allGather <volume>".
	AllGather
	// AllToAll is a personalised all-to-all exchange:
	// "<id> allToAll <volume>" with volume the per-pair block size in bytes.
	AllToAll
	// Scatter distributes one block per rank from process 0:
	// "<id> scatter <volume>".
	Scatter
	// WaitAll completes every pending asynchronous request: "<id> waitAll".
	WaitAll

	numActionTypes = iota
)

// NumTypes is the number of defined action types; dense per-type tables
// (like the replay registry's handler cache) are sized by it.
const NumTypes = numActionTypes

// names maps ActionType to its keyword in the textual format. Capitalisation
// follows Table 1 of the paper ("Isend", "allReduce").
var names = [numActionTypes]string{
	Compute:   "compute",
	Send:      "send",
	Isend:     "Isend",
	Recv:      "recv",
	Irecv:     "Irecv",
	Bcast:     "bcast",
	Reduce:    "reduce",
	AllReduce: "allReduce",
	Barrier:   "barrier",
	CommSize:  "comm_size",
	Wait:      "wait",
	Gather:    "gather",
	AllGather: "allGather",
	AllToAll:  "allToAll",
	Scatter:   "scatter",
	WaitAll:   "waitAll",
}

// typesByName is the inverse of names. Lookup is case-sensitive first and
// falls back to a lower-cased comparison, accepting "isend" or "allreduce".
var typesByName = func() map[string]ActionType {
	m := make(map[string]ActionType, 2*numActionTypes)
	for t, n := range names {
		m[n] = ActionType(t)
		m[strings.ToLower(n)] = ActionType(t)
	}
	return m
}()

// String returns the keyword of the action type.
func (t ActionType) String() string {
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("ActionType(%d)", uint8(t))
}

// TypeFromName resolves a keyword to its ActionType.
func TypeFromName(s string) (ActionType, bool) {
	t, ok := typesByName[s]
	if !ok {
		t, ok = typesByName[strings.ToLower(s)]
	}
	return t, ok
}

// Action is one entry of a time-independent trace.
type Action struct {
	// Proc is the rank of the process performing the action.
	Proc int
	// Type is the kind of operation.
	Type ActionType
	// Peer is the destination rank for sends and the source rank for
	// receives; -1 for all other actions.
	Peer int
	// Volume is the action's main volume: flops for Compute, bytes for the
	// point-to-point and Bcast actions, the communication volume for Reduce
	// and AllReduce, and the communicator size for CommSize.
	Volume float64
	// Volume2 is the computation volume of Reduce and AllReduce (vcomp).
	Volume2 float64
	// HasVolume records whether a receive carried an explicit volume; the
	// paper's example (Figure 1) omits it since the matching send fixes the
	// message size.
	HasVolume bool
}

// usableVolume reports whether v can serve as a volume. NaN, ±Inf and
// negative values would all poison the replay's resource arithmetic (a NaN
// compute burst never completes, an infinite message size deadlocks the
// sharing solver), so Validate rejects them at the codec boundary — on both
// the text and binary paths, reading and writing alike. The comparison
// rejects NaN without an explicit IsNaN call: NaN >= 0 is false.
func usableVolume(v float64) bool {
	return v >= 0 && v <= math.MaxFloat64
}

// Validate checks structural invariants of the action.
func (a Action) Validate() error {
	if a.Proc < 0 {
		return fmt.Errorf("trace: negative process rank %d", a.Proc)
	}
	switch a.Type {
	case Compute:
		if !usableVolume(a.Volume) {
			return fmt.Errorf("trace: bad compute volume %g (want finite >= 0)", a.Volume)
		}
	case Send, Isend:
		if a.Peer < 0 {
			return fmt.Errorf("trace: %s without destination", a.Type)
		}
		if !usableVolume(a.Volume) {
			return fmt.Errorf("trace: bad message size %g (want finite >= 0)", a.Volume)
		}
	case Recv, Irecv:
		if a.Peer < 0 {
			return fmt.Errorf("trace: %s without source", a.Type)
		}
		if a.HasVolume && !usableVolume(a.Volume) {
			return fmt.Errorf("trace: bad %s volume %g (want finite >= 0)", a.Type, a.Volume)
		}
	case Bcast, Gather, AllGather, AllToAll, Scatter:
		if !usableVolume(a.Volume) {
			return fmt.Errorf("trace: bad %s size %g (want finite >= 0)", a.Type, a.Volume)
		}
	case Reduce, AllReduce:
		if !usableVolume(a.Volume) || !usableVolume(a.Volume2) {
			return fmt.Errorf("trace: bad %s volumes (%g, %g) (want finite >= 0)", a.Type, a.Volume, a.Volume2)
		}
	case CommSize:
		if !(a.Volume >= 1) || a.Volume > math.MaxFloat64 {
			return fmt.Errorf("trace: bad comm_size %g (want finite >= 1)", a.Volume)
		}
	case Barrier, Wait, WaitAll:
		// No payload.
	default:
		return fmt.Errorf("trace: unknown action type %d", a.Type)
	}
	return nil
}

// Format renders the action as one line of the textual time-independent
// format, e.g. "p1 send p0 163840".
func (a Action) Format() string {
	var b strings.Builder
	b.Grow(32)
	b.WriteByte('p')
	b.WriteString(strconv.Itoa(a.Proc))
	b.WriteByte(' ')
	b.WriteString(names[a.Type])
	switch a.Type {
	case Compute, Bcast, Gather, AllGather, AllToAll, Scatter:
		b.WriteByte(' ')
		b.WriteString(formatVolume(a.Volume))
	case Send, Isend:
		b.WriteString(" p")
		b.WriteString(strconv.Itoa(a.Peer))
		b.WriteByte(' ')
		b.WriteString(formatVolume(a.Volume))
	case Recv, Irecv:
		b.WriteString(" p")
		b.WriteString(strconv.Itoa(a.Peer))
		if a.HasVolume {
			b.WriteByte(' ')
			b.WriteString(formatVolume(a.Volume))
		}
	case Reduce, AllReduce:
		b.WriteByte(' ')
		b.WriteString(formatVolume(a.Volume))
		b.WriteByte(' ')
		b.WriteString(formatVolume(a.Volume2))
	case CommSize:
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(int(a.Volume)))
	case Barrier, Wait, WaitAll:
	}
	return b.String()
}

// formatVolume renders volumes compactly ("1e+06" style for large values).
func formatVolume(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseLine parses one line of the textual format. Empty lines and lines
// starting with '#' yield ok=false with a nil error. It is the string
// convenience wrapper over ParseLineBytes, the allocation-free fast path;
// lines of realistic length go through a stack buffer, so the wrapper is
// allocation-free too.
func ParseLine(line string) (a Action, ok bool, err error) {
	var buf [128]byte
	if len(line) <= len(buf) {
		return ParseLineBytes(buf[:copy(buf[:], line)])
	}
	return ParseLineBytes([]byte(line))
}
