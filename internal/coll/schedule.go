package coll

import "tireplay/internal/smpi"

// barrierToken is the payload of barrier synchronisation messages, the
// 1-byte token of the paper's star barrier.
const barrierToken = 1

// Resolve maps a selection to the concrete algorithm replayed for one
// collective of the given per-rank volume: Default becomes the paper's
// Linear star, Auto picks per message size with thresholds derived from the
// piece-wise linear MPI model's segment boundaries (SMPI's own selection
// mechanism), and an unsupported concrete algorithm degrades to the kind's
// first supported one. The result depends only on (kind, alg, n, bytes), so
// every rank of a world resolves identically.
func Resolve(kind Kind, alg Algorithm, model *smpi.Model, n int, bytes float64) Algorithm {
	switch alg {
	case Default:
		return supported[kind][0]
	case Auto:
		small, eager := autoThresholds(model)
		switch kind {
		case KindBcast, KindReduce, KindGather, KindScatter:
			// Latency-bound sizes win with the log-depth tree; past the
			// eager/rendezvous switch the flat star's single full-size
			// transfer per peer models synchronous-mode behaviour.
			if bytes < eager {
				return Binomial
			}
			return Linear
		case KindAllReduce:
			// SMPI-style: recursive doubling for latency-bound messages,
			// tree for eager-protocol sizes, ring once bandwidth dominates.
			if bytes < small {
				return RecursiveDoubling
			}
			if bytes < eager {
				return Binomial
			}
			return Ring
		case KindBarrier:
			return Tree
		case KindAllGather:
			if bytes < eager {
				return Linear
			}
			return Ring
		default: // KindAllToAll
			return Linear
		}
	}
	if !Supports(kind, alg) {
		return supported[kind][0]
	}
	return alg
}

// autoThresholds derives Auto's (small, eager) size boundaries from the MPI
// model: the first segment boundary is the IP-frame/small-message limit, the
// last finite one the eager/rendezvous protocol switch.
func autoThresholds(model *smpi.Model) (small, eager float64) {
	small, eager = 1024, 64*1024
	if model == nil {
		return small, eager
	}
	segs := model.Segments()
	var finite []float64
	for _, s := range segs {
		if !isInf(s.MaxBytes) {
			finite = append(finite, s.MaxBytes)
		}
	}
	if len(finite) > 0 {
		small = finite[0]
		eager = finite[len(finite)-1]
	}
	return small, eager
}

func isInf(f float64) bool { return f > 1e300 }

// Rounds returns the number of phases the schedule of one (kind, alg)
// collective spans in an n-rank world, identical on every rank: barrier
// stacks its two phases with it, and the property tests pair messages by
// round. alg must be concrete (post-Resolve).
func Rounds(kind Kind, alg Algorithm, n int) int {
	if n <= 1 {
		return 0
	}
	switch kind {
	case KindBcast, KindReduce, KindGather, KindScatter:
		if alg == Binomial {
			return ceilLog2(n)
		}
		return 1
	case KindAllReduce:
		switch alg {
		case Binomial:
			return 2 * ceilLog2(n)
		case RecursiveDoubling:
			k := log2Floor(n)
			if n == 1<<k {
				return k
			}
			return k + 2
		case Ring:
			return 2 * (n - 1)
		}
		return 2
	case KindBarrier:
		if alg == Tree {
			return 2 * ceilLog2(n)
		}
		return 2
	case KindAllGather:
		if alg == Ring {
			return n - 1
		}
		return 2
	case KindAllToAll:
		return n - 1
	}
	return 0
}

// AppendSchedule appends the steps rank executes for one collective to buf
// and returns the extended buffer. vcomm is the traced per-rank
// communication volume (ignored by Barrier, which moves 1-byte tokens),
// vcomp the traced local reduction work of Reduce/AllReduce (a trailing
// compute step on every rank, matching the paper's handlers). alg must be
// concrete (post-Resolve). Reusing buf across calls keeps the replay's
// steady state allocation-free.
func AppendSchedule(buf []Step, kind Kind, alg Algorithm, rank, n int, vcomm, vcomp float64) []Step {
	if n > 1 {
		switch kind {
		case KindBcast:
			buf = appendBcast(buf, alg, rank, n, vcomm, 0, false)
		case KindReduce:
			buf = appendReduce(buf, alg, rank, n, vcomm, 0, false)
		case KindAllReduce:
			buf = appendAllReduce(buf, alg, rank, n, vcomm)
		case KindBarrier:
			barAlg := Linear
			if alg == Tree {
				barAlg = Binomial
			}
			buf = appendReduce(buf, barAlg, rank, n, barrierToken, 0, false)
			buf = appendBcast(buf, barAlg, rank, n, barrierToken, Rounds(kind, alg, n)/2, false)
		case KindGather:
			buf = appendReduce(buf, alg, rank, n, vcomm, 0, true)
		case KindAllGather:
			buf = appendAllGather(buf, alg, rank, n, vcomm)
		case KindAllToAll:
			buf = appendPairwise(buf, rank, n, vcomm)
		case KindScatter:
			buf = appendBcast(buf, alg, rank, n, vcomm, 0, true)
		}
	}
	if vcomp > 0 && (kind == KindReduce || kind == KindAllReduce) {
		buf = append(buf, Step{Op: OpCompute, To: -1, From: -1, Volume: vcomp})
	}
	return buf
}

// appendBcast emits the broadcast of bytes from rank 0, rounds starting at
// round0 (so compositions like allReduce can stack phases). With blocks it
// is the scatter: each edge carries one block of bytes per rank of the
// subtree below it.
func appendBcast(buf []Step, alg Algorithm, rank, n int, bytes float64, round0 int, blocks bool) []Step {
	if alg != Binomial {
		if rank == 0 {
			for i := 1; i < n; i++ {
				buf = append(buf, Step{Op: OpSend, To: i, From: -1, Round: round0, Volume: bytes})
			}
			return buf
		}
		return append(buf, Step{Op: OpRecv, To: -1, From: 0, Round: round0, Volume: bytes})
	}
	start := 0
	if rank > 0 {
		tr := log2Floor(rank)
		buf = append(buf, Step{Op: OpRecv, To: -1, From: rank - 1<<tr, Round: round0 + tr,
			Volume: edgeVolume(rank, n, bytes, blocks)})
		start = tr + 1
	}
	for t := start; rank+1<<t < n; t++ {
		child := rank + 1<<t
		buf = append(buf, Step{Op: OpSend, To: child, From: -1, Round: round0 + t,
			Volume: edgeVolume(child, n, bytes, blocks)})
	}
	return buf
}

// appendReduce emits the reduction of bytes to rank 0 (every edge carries
// the full vector — combining does not shrink it), rounds from round0. With
// blocks it is the gather: each edge carries one block of bytes per rank of
// the subtree below it.
func appendReduce(buf []Step, alg Algorithm, rank, n int, bytes float64, round0 int, blocks bool) []Step {
	if alg != Binomial {
		if rank == 0 {
			for i := 1; i < n; i++ {
				buf = append(buf, Step{Op: OpRecv, To: -1, From: i, Round: round0, Volume: bytes})
			}
			return buf
		}
		return append(buf, Step{Op: OpSend, To: 0, From: -1, Round: round0, Volume: bytes})
	}
	// Mirror of the binomial broadcast: children join in decreasing phase
	// order, then the combined vector moves to the parent.
	r := ceilLog2(n)
	tr := -1
	if rank > 0 {
		tr = log2Floor(rank)
	}
	for t := r - 1; t > tr; t-- {
		if child := rank + 1<<t; child < n {
			buf = append(buf, Step{Op: OpRecv, To: -1, From: child, Round: round0 + (r - 1 - t),
				Volume: edgeVolume(child, n, bytes, blocks)})
		}
	}
	if rank > 0 {
		buf = append(buf, Step{Op: OpSend, To: rank - 1<<tr, From: -1, Round: round0 + (r - 1 - tr),
			Volume: edgeVolume(rank, n, bytes, blocks)})
	}
	return buf
}

func appendAllReduce(buf []Step, alg Algorithm, rank, n int, bytes float64) []Step {
	switch alg {
	case Binomial:
		r := ceilLog2(n)
		buf = appendReduce(buf, Binomial, rank, n, bytes, 0, false)
		return appendBcast(buf, Binomial, rank, n, bytes, r, false)
	case RecursiveDoubling:
		return appendRecursiveDoubling(buf, rank, n, bytes)
	case Ring:
		// 2(n-1) chunk rotations: n-1 reduce-scatter shifts then n-1
		// allgather shifts, each moving one n-th of the vector.
		to, from := (rank+1)%n, (rank+n-1)%n
		for s := 0; s < 2*(n-1); s++ {
			buf = append(buf, Step{Op: OpShift, To: to, From: from, Round: s, Volume: bytes / float64(n)})
		}
		return buf
	}
	// Linear: the paper's reduce star followed by its broadcast star.
	buf = appendReduce(buf, Linear, rank, n, bytes, 0, false)
	return appendBcast(buf, Linear, rank, n, bytes, 1, false)
}

// appendRecursiveDoubling emits the pairwise-exchange allReduce. For
// non-power-of-two worlds the MPICH fold applies: the first 2*rem ranks pair
// up (odd sends to even), the resulting 2^k participants run k exchange
// phases, and the folded ranks receive the result back at the end.
func appendRecursiveDoubling(buf []Step, rank, n int, bytes float64) []Step {
	k := log2Floor(n)
	pof2 := 1 << k
	rem := n - pof2
	foldRounds := 0
	if rem > 0 {
		foldRounds = 1
	}
	newrank := -1
	switch {
	case rank < 2*rem && rank%2 == 1:
		buf = append(buf, Step{Op: OpSend, To: rank - 1, From: -1, Round: 0, Volume: bytes})
	case rank < 2*rem:
		buf = append(buf, Step{Op: OpRecv, To: -1, From: rank + 1, Round: 0, Volume: bytes})
		newrank = rank / 2
	default:
		newrank = rank - rem
	}
	if newrank >= 0 {
		for t := 0; t < k; t++ {
			pn := newrank ^ (1 << t)
			partner := pn * 2
			if pn >= rem {
				partner = pn + rem
			}
			buf = append(buf, Step{Op: OpShift, To: partner, From: partner, Round: foldRounds + t, Volume: bytes})
		}
	}
	if rank < 2*rem {
		if rank%2 == 1 {
			buf = append(buf, Step{Op: OpRecv, To: -1, From: rank - 1, Round: foldRounds + k, Volume: bytes})
		} else {
			buf = append(buf, Step{Op: OpSend, To: rank + 1, From: -1, Round: foldRounds + k, Volume: bytes})
		}
	}
	return buf
}

// edgeVolume is the payload of the binomial tree edge above child: bytes,
// or with blocks one block of bytes per rank of child's subtree.
func edgeVolume(child, n int, bytes float64, blocks bool) float64 {
	if !blocks {
		return bytes
	}
	return float64(subtreeSize(child, n)) * bytes
}

// subtreeSize returns the number of ranks in rank's binomial subtree: the
// ranks congruent to it modulo 2^(tr+1) that exist in the world.
func subtreeSize(rank, n int) int {
	span := 1
	if rank > 0 {
		span = 2 << log2Floor(rank)
	}
	return (n - rank + span - 1) / span
}

func appendAllGather(buf []Step, alg Algorithm, rank, n int, bytes float64) []Step {
	if alg == Ring {
		// n-1 block rotations; after step s a rank holds s+2 blocks.
		to, from := (rank+1)%n, (rank+n-1)%n
		for s := 0; s < n-1; s++ {
			buf = append(buf, Step{Op: OpShift, To: to, From: from, Round: s, Volume: bytes})
		}
		return buf
	}
	// Linear: gather the blocks at rank 0, broadcast the full vector back.
	buf = appendReduce(buf, Linear, rank, n, bytes, 0, true)
	return appendBcast(buf, Linear, rank, n, float64(n)*bytes, 1, false)
}

// appendPairwise emits the pairwise-exchange allToAll: in step s every rank
// sends its block for rank+s to it while receiving from rank-s.
func appendPairwise(buf []Step, rank, n int, bytes float64) []Step {
	for s := 1; s < n; s++ {
		buf = append(buf, Step{Op: OpShift, To: (rank + s) % n, From: (rank + n - s) % n,
			Round: s - 1, Volume: bytes})
	}
	return buf
}

// CostBytes is the closed-form cost model: the total payload bytes all n
// ranks together put on the network for one collective of per-rank volume
// bytes. The property tests hold every generated schedule to it. alg must
// be concrete (post-Resolve).
func CostBytes(kind Kind, alg Algorithm, n int, bytes float64) float64 {
	if n <= 1 {
		return 0
	}
	nf := float64(n)
	switch kind {
	case KindBcast, KindReduce:
		return (nf - 1) * bytes
	case KindGather, KindScatter:
		if alg == Binomial {
			// Every non-root rank's subtree block set crosses the edge
			// above it exactly once.
			total := 0.0
			for r := 1; r < n; r++ {
				total += float64(subtreeSize(r, n))
			}
			return total * bytes
		}
		return (nf - 1) * bytes
	case KindAllReduce:
		switch alg {
		case RecursiveDoubling:
			k := log2Floor(n)
			pof2 := 1 << k
			rem := n - pof2
			return (float64(k*pof2) + 2*float64(rem)) * bytes
		case Ring:
			return nf * 2 * (nf - 1) * bytes / nf
		}
		return 2 * (nf - 1) * bytes
	case KindBarrier:
		return 2 * (nf - 1) * barrierToken
	case KindAllGather:
		if alg == Ring {
			return nf * (nf - 1) * bytes
		}
		return (nf-1)*bytes + (nf-1)*nf*bytes
	case KindAllToAll:
		return nf * (nf - 1) * bytes
	}
	return 0
}
