// Package coll is the collective-schedule subsystem of the replay tool: it
// decomposes each traced collective operation into a deterministic schedule
// of point-to-point send/recv/compute steps, the decomposition the paper
// performs with a fixed star through rank 0 (Section 5). Real MPI
// implementations — SMPI among them, which the paper validates against —
// select an algorithm per collective and message size, and the collective
// topology dominates makespan accuracy at scale; this package makes the
// algorithm a replay parameter, so the same time-independent trace can be
// replayed under different collective algorithms as one more what-if axis.
//
// An Algorithm is a pure function of (rank, world size, volume): it appends
// the steps the rank executes to a caller-owned buffer (AppendSchedule) and
// declares how many mailbox rounds the collective spans (Rounds). Schedules
// are deterministic and identical in shape on every rank, which is what lets
// the replay's interned round-mailbox fast path derive every rendezvous
// mailbox from a shared round counter without formatting a name.
package coll

import (
	"fmt"
	"math/bits"
	"strings"
)

// Kind enumerates the collective operations with selectable algorithms.
type Kind uint8

const (
	KindBcast Kind = iota
	KindReduce
	KindAllReduce
	KindBarrier
	KindGather
	KindAllGather
	KindAllToAll
	KindScatter

	// NumKinds sizes dense per-kind tables (like Config).
	NumKinds = iota
)

// kindNames follows the trace keyword capitalisation.
var kindNames = [NumKinds]string{
	KindBcast:     "bcast",
	KindReduce:    "reduce",
	KindAllReduce: "allReduce",
	KindBarrier:   "barrier",
	KindGather:    "gather",
	KindAllGather: "allGather",
	KindAllToAll:  "allToAll",
	KindScatter:   "scatter",
}

// String returns the collective's trace keyword.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromName resolves a collective keyword (case-insensitively).
func KindFromName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if strings.EqualFold(s, n) {
			return Kind(k), true
		}
	}
	return 0, false
}

// Algorithm identifies one collective algorithm.
type Algorithm uint8

const (
	// Default resolves to Linear for every collective: the paper's
	// decomposition, a star through rank 0. The zero value, so a zero
	// replay configuration reproduces the historical behaviour exactly.
	Default Algorithm = iota
	// Linear is the flat star through rank 0 (pairwise shifts for the
	// collectives a star cannot express, allToAll).
	Linear
	// Binomial is a binomial tree rooted at rank 0 (bcast, reduce, gather,
	// scatter and the reduce+bcast composition of allReduce).
	Binomial
	// RecursiveDoubling is the log2(n)-phase pairwise-exchange allReduce,
	// with the MPICH fold/unfold extension for non-power-of-two worlds.
	RecursiveDoubling
	// Ring is the bandwidth-optimal ring: 2(n-1) chunk shifts for
	// allReduce, n-1 block shifts for allGather.
	Ring
	// Tree is the binomial gather+release tree barrier.
	Tree
	// Auto selects per message size, SMPI-style: the thresholds derive
	// from the piece-wise linear MPI model's segment boundaries.
	Auto

	numAlgorithms = iota
)

var algNames = [numAlgorithms]string{
	Default:           "default",
	Linear:            "linear",
	Binomial:          "binomial",
	RecursiveDoubling: "rdb",
	Ring:              "ring",
	Tree:              "tree",
	Auto:              "auto",
}

// String returns the algorithm's flag spelling.
func (a Algorithm) String() string {
	if int(a) < len(algNames) {
		return algNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// AlgorithmFromName resolves an algorithm name (case-insensitively);
// "recursive-doubling" is accepted as a spelled-out alias of "rdb".
func AlgorithmFromName(s string) (Algorithm, bool) {
	if strings.EqualFold(s, "recursive-doubling") {
		return RecursiveDoubling, true
	}
	for a, n := range algNames {
		if strings.EqualFold(s, n) {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// supported[kind] lists the concrete algorithms implementing the kind.
// Default and Auto are valid selections for every kind (they resolve to a
// member of this list).
var supported = [NumKinds][]Algorithm{
	KindBcast:     {Linear, Binomial},
	KindReduce:    {Linear, Binomial},
	KindAllReduce: {Linear, Binomial, RecursiveDoubling, Ring},
	KindBarrier:   {Linear, Tree},
	KindGather:    {Linear, Binomial},
	KindAllGather: {Linear, Ring},
	KindAllToAll:  {Linear},
	KindScatter:   {Linear, Binomial},
}

// Supports reports whether alg is a valid selection for kind. Default and
// Auto are always valid; concrete algorithms must implement the kind.
func Supports(kind Kind, alg Algorithm) bool {
	if int(kind) >= NumKinds {
		return false
	}
	if alg == Default || alg == Auto {
		return true
	}
	for _, a := range supported[kind] {
		if a == alg {
			return true
		}
	}
	return false
}

// Supported returns the concrete algorithms implementing kind, in
// preference order (the first is the kind's Linear-compatible default).
func Supported(kind Kind) []Algorithm {
	return append([]Algorithm(nil), supported[kind]...)
}

// Op is the kind of one schedule step.
type Op uint8

const (
	// OpSend is a blocking synchronous send of Volume bytes to rank To.
	OpSend Op = iota
	// OpRecv is a blocking receive from rank From.
	OpRecv
	// OpShift is a simultaneous exchange (MPI_Sendrecv): send Volume bytes
	// to To while receiving from From, completing when both have. The
	// executor must post the send asynchronously to avoid deadlocking the
	// pairwise-exchange phases.
	OpShift
	// OpCompute executes Volume flops locally.
	OpCompute
)

// Step is one entry of a rank's schedule for one collective.
type Step struct {
	Op Op
	// To is the destination rank of OpSend/OpShift.
	To int
	// From is the source rank of OpRecv/OpShift.
	From int
	// Round is the schedule phase the step's message belongs to, in
	// [0, Rounds(kind, alg, n)). Every rank numbers rounds identically and
	// lists its messages in non-decreasing round order, so a (round, src,
	// dst) triple names one message of the collective.
	Round int
	// Volume is the payload in bytes (OpSend/OpShift) or flops (OpCompute).
	Volume float64
}

// log2Floor returns floor(log2(n)) for n >= 1.
func log2Floor(n int) int {
	return bits.Len(uint(n)) - 1
}

// ceilLog2 returns the number of binomial phases for an n-rank world: the
// smallest k with 2^k >= n.
func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
