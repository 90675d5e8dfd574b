package synth

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"tireplay/internal/trace"
)

// Fit derives a Model from one recorded trace (one action list per rank).
// The fit is structural and exact: the returned model, regenerated at the
// recorded world size, reproduces every rank's recorded action stream
// action-for-action — Fit verifies this itself and fails loudly when the
// trace does not decompose into the stencil/butterfly + collective-cadence
// shape the model can express (adaptive or master-worker patterns are out
// of scope by the paper's own non-adaptive assumption).
//
// Pipeline: strip comm_size → split every rank at its collectives and
// require the collective skeleton (types and volumes) to agree across
// ranks → infer the rank grid and the direction table from the observed
// p2p pairs → group ranks into classes by their set of present directions
// → compress each class's segment with period detection → merge the class
// templates into one union template per segment (LCS alignment) → verify
// by regenerating all ranks and comparing against the input.
func Fit(perRank [][]trace.Action) (*Model, error) {
	n := len(perRank)
	if n < 1 {
		return nil, fmt.Errorf("synth: fit needs at least one rank")
	}

	// Per-rank segmentation at collective boundaries.
	colls, segs, err := segmentRanks(perRank)
	if err != nil {
		return nil, err
	}

	// Grid and direction inference from the observed p2p pairs.
	gw, gh, dirs, dirOf, err := inferGrid(n, segs)
	if err != nil {
		return nil, err
	}

	// Convert each rank's segments to dir-annotated op streams.
	rankOps, err := annotateRanks(n, gw, segs, dirOf)
	if err != nil {
		return nil, err
	}

	// Rank classes: ranks sharing a direction-presence mask. Every member
	// of a class must replay the identical stream for the class template
	// to stand in for all of them.
	reps, err := classReps(n, rankOps)
	if err != nil {
		return nil, err
	}

	// Per segment: compress each class representative, then merge the
	// class templates into one union segment phase.
	nseg := len(segs[0])
	phases := make([]Phase, 0, 2*nseg)
	script := make([]int, 0, 2*nseg)
	addPhase := func(ph Phase) {
		key := phaseKey(ph)
		for i := range phases {
			if phaseKey(phases[i]) == key {
				script = append(script, i)
				return
			}
		}
		phases = append(phases, ph)
		script = append(script, len(phases)-1)
	}
	for s := 0; s < nseg; s++ {
		seg, err := fitSegment(reps, rankOps, s)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", s, err)
		}
		if err := checkConjugates(seg, dirs); err != nil {
			return nil, fmt.Errorf("segment %d: %w", s, err)
		}
		if seg.Len() > 0 {
			addPhase(Phase{Seg: seg})
		}
		if s < len(colls) {
			c := colls[s]
			addPhase(Phase{Coll: &CollPhase{Type: c.typ, Comm: c.comm, Red: c.red}})
		}
	}

	m := &Model{World: n, GridW: gw, GridH: gh, Dirs: dirs, Phases: phases}
	m.Prologue, m.Body, m.Reps, m.Tail = compressScript(script)
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("synth: fitted model invalid: %w", err)
	}
	if err := verifyFit(m, perRank); err != nil {
		return nil, err
	}
	return m, nil
}

// FitDir fits a model from a directory of per-rank trace files
// (SG_process<rank>.trace, .trace.gz and .tib are all resolved). The files
// are resolved up to the first missing rank (trace.RankFiles) before any
// is read, then read on trace.EachRank; a failure returns what reading the
// ranks one by one would, the error of the lowest rank that is missing or
// fails to read.
func FitDir(dir string, ranks int) (*Model, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("synth: fit needs a positive rank count")
	}
	paths, missing := trace.RankFiles(dir, ranks)
	perRank := make([][]trace.Action, len(paths))
	err := trace.EachRank(len(paths), func(r int) (err error) {
		if perRank[r], err = trace.ReadFile(paths[r]); err != nil {
			return fmt.Errorf("synth: reading %s: %w", paths[r], err)
		}
		return nil
	})
	if err == nil {
		err = missing
	}
	if err != nil {
		return nil, err
	}
	return Fit(perRank)
}

// ---------------------------------------------------------------------------
// Segmentation

type collEv struct {
	typ       trace.ActionType
	comm, red float64
}

func isCollective(t trace.ActionType) bool {
	switch t {
	case trace.Bcast, trace.Reduce, trace.AllReduce, trace.Barrier,
		trace.Gather, trace.AllGather, trace.AllToAll, trace.Scatter:
		return true
	}
	return false
}

// segmentRanks strips the leading comm_size, splits every rank's stream at
// its collectives and checks the collective skeleton agrees across ranks.
// segs[r] has len(colls)+1 entries (a possibly-empty op run between
// consecutive collectives).
func segmentRanks(perRank [][]trace.Action) ([]collEv, [][][]trace.Action, error) {
	n := len(perRank)
	var colls []collEv
	segs := make([][][]trace.Action, n)
	for r, acts := range perRank {
		if len(acts) > 0 && acts[0].Type == trace.CommSize {
			if int(acts[0].Volume) != n {
				return nil, nil, fmt.Errorf("synth: rank %d declares comm_size %g in a %d-rank trace",
					r, acts[0].Volume, n)
			}
			acts = acts[1:]
		}
		var rcolls []collEv
		rsegs := [][]trace.Action{nil}
		for i, a := range acts {
			switch {
			case a.Type == trace.CommSize:
				return nil, nil, fmt.Errorf("synth: rank %d has comm_size at action %d (only a leading one is supported)", r, i)
			case isCollective(a.Type):
				rcolls = append(rcolls, collEv{typ: a.Type, comm: a.Volume, red: a.Volume2})
				rsegs = append(rsegs, nil)
			default:
				rsegs[len(rsegs)-1] = append(rsegs[len(rsegs)-1], a)
			}
		}
		if r == 0 {
			colls = rcolls
		} else if err := sameSkeleton(colls, rcolls, r); err != nil {
			return nil, nil, err
		}
		segs[r] = rsegs
	}
	return colls, segs, nil
}

func sameSkeleton(want, got []collEv, rank int) error {
	if len(want) != len(got) {
		return fmt.Errorf("synth: rank %d has %d collectives, rank 0 has %d — the collective skeleton must agree",
			rank, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("synth: collective %d disagrees between rank 0 (%s %g/%g) and rank %d (%s %g/%g)",
				i, want[i].typ, want[i].comm, want[i].red, rank, got[i].typ, got[i].comm, got[i].red)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Grid and direction inference

type delta struct{ dx, dy int }

func isP2P(t trace.ActionType) bool {
	switch t {
	case trace.Send, trace.Isend, trace.Recv, trace.Irecv:
		return true
	}
	return false
}

// inferGrid tries every divisor pair (w, h) of n as the rank grid,
// classifies each observed (rank, peer) relation as a grid offset or a
// same-row XOR pairing, and keeps the grid minimizing the total stencil
// cost (sum of |dx|+|dy| per offset direction, 2 per XOR direction) — the
// heuristic that makes the true decomposition win over accidental ones
// (a wrong width splinters one logical direction into several expensive
// deltas). Ties prefer the squarer grid, then the wider one, matching
// npb's xdim >= ydim convention.
func inferGrid(n int, segs [][][]trace.Action) (gw, gh int, dirs []Dir, dirOf map[delta]int, err error) {
	pairs := map[[2]int]struct{}{}
	for r, rsegs := range segs {
		for _, seg := range rsegs {
			for _, a := range seg {
				if isP2P(a.Type) {
					if a.Peer < 0 || a.Peer >= n || a.Peer == r {
						return 0, 0, nil, nil, fmt.Errorf("synth: rank %d %s peer %d out of range", r, a.Type, a.Peer)
					}
					pairs[[2]int{r, a.Peer}] = struct{}{}
				}
			}
		}
	}
	if len(pairs) == 0 {
		return n, 1, nil, map[delta]int{}, nil
	}

	type fitCand struct {
		w, h   int
		fit    dirFit
		aspect float64
	}
	var best *fitCand
	for w := 1; w <= n; w++ {
		if n%w != 0 {
			continue
		}
		h := n / w
		fit := classifyDirs(w, h, pairs)
		aspect := math.Abs(math.Log(float64(w) / float64(h)))
		better := best == nil ||
			(fit.feasible && !best.fit.feasible) ||
			(fit.feasible == best.fit.feasible &&
				(fit.cost < best.fit.cost ||
					(fit.cost == best.fit.cost && aspect < best.aspect-1e-12) ||
					(fit.cost == best.fit.cost && math.Abs(aspect-best.aspect) <= 1e-12 && w > best.w)))
		if better {
			best = &fitCand{w: w, h: h, fit: fit, aspect: aspect}
		}
	}
	return best.w, best.h, best.fit.dirs, best.fit.dirOf, nil
}

type dirFit struct {
	cost     int
	feasible bool
	dirs     []Dir
	dirOf    map[delta]int
}

// classifyDirs reads the observed pairs on a candidate w x h grid. The
// load-bearing notion is *feasibility*: emission later gives a rank an op
// exactly when the op's direction exists at the rank's grid position, so
// a reading is feasible only if every rank's observed use of a direction
// coincides with its geometric presence. Same-row power-of-two deltas are
// ambiguous between a +/-d stencil pair and a one-bit butterfly (XOR)
// pairing; each magnitude is decided independently — feasible reading
// first, then the cheaper, then the stencil (the recorded-size output is
// identical either way, and stencils are the common case).
func classifyDirs(w, h int, pairs map[[2]int]struct{}) dirFit {
	// Group pairs by grid delta and record which ranks use which deltas.
	byDelta := map[delta][][2]int{}
	uses := map[int]map[delta]bool{}
	for p := range pairs {
		r, q := p[0], p[1]
		d := delta{dx: q%w - r%w, dy: q/w - r/w}
		byDelta[d] = append(byDelta[d], p)
		if uses[r] == nil {
			uses[r] = map[delta]bool{}
		}
		uses[r][d] = true
	}

	// A delta's offset reading is feasible iff every rank that *could*
	// exchange in that direction does: usage must equal geometric
	// presence across the ranks that use any direction at all.
	offsetFeasible := func(d delta) bool {
		for r, has := range uses {
			col, row := r%w, r/w
			present := col+d.dx >= 0 && col+d.dx < w && row+d.dy >= 0 && row+d.dy < h
			if has[d] != present {
				return false
			}
		}
		return true
	}
	// The XOR reading of magnitude d pairs col with col^d within the row.
	xorFeasible := func(mag int) bool {
		for r, has := range uses {
			col := r % w
			present := col^mag < w
			if (has[delta{dx: mag}] || has[delta{dx: -mag}]) != present {
				return false
			}
		}
		return true
	}
	// XOR is structurally possible for a magnitude only when every pair's
	// columns differ in exactly that bit and no rank pairs both ways (a
	// stencil's interior ranks exchange with both neighbours).
	xorPossible := func(mag int) bool {
		all := append(append([][2]int{}, byDelta[delta{dx: mag}]...), byDelta[delta{dx: -mag}]...)
		for _, p := range all {
			if p[0]%w^p[1]%w != mag {
				return false
			}
		}
		for _, has := range uses {
			if has[delta{dx: mag}] && has[delta{dx: -mag}] {
				return false
			}
		}
		return true
	}

	fit := dirFit{feasible: true, dirOf: map[delta]int{}}
	var offsets []delta
	xorMag := map[int]bool{}
	for d := range byDelta {
		if d.dy != 0 || d.dx < 0 || d.dx&(d.dx-1) != 0 {
			if d.dy != 0 || !(d.dx < 0 && xorMag[-d.dx]) {
				offsets = append(offsets, d)
			}
			continue
		}
		// Same-row power-of-two magnitude: decide offset vs XOR once for
		// the +/- pair (the -dx delta, if seen first, waits for this).
		mag := d.dx
		offCost := abs(mag)
		if _, seen := byDelta[delta{dx: -mag}]; seen {
			offCost *= 2
		}
		offOK := offsetFeasible(delta{dx: mag}) && offsetFeasible(delta{dx: -mag})
		xorOK := xorPossible(mag) && xorFeasible(mag)
		if xorOK && (!offOK || 2 < offCost) {
			xorMag[mag] = true
		} else {
			offsets = append(offsets, d)
			if !offOK {
				fit.feasible = false
			}
			continue
		}
	}
	// Second pass: -dx halves of XOR magnitudes decided after they were
	// scanned, and feasibility of the plain offsets.
	final := offsets[:0]
	for _, d := range offsets {
		if d.dy == 0 && d.dx < 0 && xorMag[-d.dx] {
			continue
		}
		final = append(final, d)
		if !offsetFeasible(d) {
			fit.feasible = false
		}
	}
	offsets = final

	// Build the direction table deterministically: offsets sorted by
	// (dy, dx), then XOR dirs by bit.
	sort.Slice(offsets, func(i, j int) bool {
		if offsets[i].dy != offsets[j].dy {
			return offsets[i].dy < offsets[j].dy
		}
		return offsets[i].dx < offsets[j].dx
	})
	var xbits []int
	for mag := range xorMag {
		xbits = append(xbits, bits.TrailingZeros(uint(mag)))
	}
	sort.Ints(xbits)

	for _, d := range offsets {
		fit.dirOf[d] = len(fit.dirs)
		fit.dirs = append(fit.dirs, Dir{Kind: DirOffset, DX: d.dx, DY: d.dy})
		fit.cost += abs(d.dx) + abs(d.dy)
	}
	for _, b := range xbits {
		mag := 1 << b
		fit.dirOf[delta{dx: mag}] = len(fit.dirs)
		fit.dirOf[delta{dx: -mag}] = len(fit.dirs)
		fit.dirs = append(fit.dirs, Dir{Kind: DirXor, Bit: b})
		fit.cost += 2
	}
	return fit
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---------------------------------------------------------------------------
// Dir annotation and rank classes

// fitOp is the internal symbol the compressor works on: an op template
// with its direction resolved and its volume pinned.
type fitOp struct {
	typ trace.ActionType
	dir int
	vol float64
}

// annotateRanks converts each rank's segments into fitOp streams: p2p
// peers become direction indices and each wait is annotated with the
// direction of the request it completes (FIFO order, mirroring the
// replay's oldest-request-first semantics), so that filtering a class
// template by direction presence keeps waits paired with their requests.
func annotateRanks(n, gw int, segs [][][]trace.Action, dirOf map[delta]int) ([][][]fitOp, error) {
	out := make([][][]fitOp, n)
	for r, rsegs := range segs {
		var fifo []int // dirs of pending Isend/Irecv requests
		out[r] = make([][]fitOp, len(rsegs))
		for s, seg := range rsegs {
			ops := make([]fitOp, 0, len(seg))
			for i, a := range seg {
				switch a.Type {
				case trace.Compute:
					ops = append(ops, fitOp{typ: a.Type, dir: -1, vol: a.Volume})
				case trace.Send, trace.Isend, trace.Recv, trace.Irecv:
					d := delta{dx: a.Peer%gw - r%gw, dy: a.Peer/gw - r/gw}
					di, ok := dirOf[d]
					if !ok {
						return nil, fmt.Errorf("synth: internal: rank %d peer %d has no direction", r, a.Peer)
					}
					vol := a.Volume
					if a.Type == trace.Recv || a.Type == trace.Irecv {
						vol = 0 // receive volumes are redundant; the sender's is authoritative
					}
					ops = append(ops, fitOp{typ: a.Type, dir: di, vol: vol})
					if a.Type == trace.Isend || a.Type == trace.Irecv {
						fifo = append(fifo, di)
					}
				case trace.Wait:
					if len(fifo) == 0 {
						return nil, fmt.Errorf("synth: rank %d waits at segment %d action %d with no pending request", r, s, i)
					}
					ops = append(ops, fitOp{typ: a.Type, dir: fifo[0]})
					fifo = fifo[1:]
				case trace.WaitAll:
					ops = append(ops, fitOp{typ: a.Type, dir: -1})
					fifo = fifo[:0]
				default:
					return nil, fmt.Errorf("synth: rank %d has unsupported action %s inside a segment", r, a.Type)
				}
			}
			out[r][s] = ops
		}
		if len(fifo) != 0 {
			return nil, fmt.Errorf("synth: rank %d ends with %d unwaited requests", r, len(fifo))
		}
	}
	return out, nil
}

// classReps groups ranks by direction-presence mask and returns one
// representative per class (the lowest rank), ordered by descending
// direction count so the richest class seeds the union merge. Every rank
// in a class must replay the identical stream.
func classReps(n int, rankOps [][][]fitOp) ([]int, error) {
	mask := func(r int) uint64 {
		var m uint64
		for _, seg := range rankOps[r] {
			for _, op := range seg {
				if op.dir >= 0 {
					m |= 1 << uint(op.dir)
				}
			}
		}
		return m
	}
	byMask := map[uint64]int{} // mask -> representative (lowest rank)
	var order []uint64
	for r := 0; r < n; r++ {
		m := mask(r)
		rep, ok := byMask[m]
		if !ok {
			byMask[m] = r
			order = append(order, m)
			continue
		}
		// Class-consistency: the rank must match its representative.
		for s := range rankOps[r] {
			if err := sameOps(rankOps[rep][s], rankOps[r][s]); err != nil {
				return nil, fmt.Errorf("synth: rank %d differs from its class representative %d in segment %d: %w",
					r, rep, s, err)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		pi, pj := bits.OnesCount64(order[i]), bits.OnesCount64(order[j])
		if pi != pj {
			return pi > pj
		}
		return byMask[order[i]] < byMask[order[j]]
	})
	reps := make([]int, len(order))
	for i, m := range order {
		reps[i] = byMask[m]
	}
	return reps, nil
}

func sameOps(a, b []fitOp) error {
	if len(a) != len(b) {
		return fmt.Errorf("op counts differ (%d vs %d)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("op %d differs (%v vs %v)", i, a[i], b[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Period detection

// findPeriod compresses ids into prologue + body*reps + tail: it scans
// prologue lengths and, for each, finds the longest prefix of the
// remainder that is an exact whole-multiple repetition (via the KMP
// prefix function), keeping the split that covers the most symbols.
// Returns reps = 0 when nothing repeats (everything lands in preLen).
func findPeriod(ids []int32) (preLen, period, reps int) {
	L := len(ids)
	maxPre := L / 4
	if maxPre > 256 {
		maxPre = 256
	}
	bestCovered := 0
	preLen = L
	pi := make([]int, L)
	for a := 0; a <= maxPre; a++ {
		s := ids[a:]
		if len(s) < 2 || bestCovered >= len(s) {
			break
		}
		// Prefix function of s.
		pf := pi[:len(s)]
		pf[0] = 0
		for i := 1; i < len(s); i++ {
			k := pf[i-1]
			for k > 0 && s[i] != s[k] {
				k = pf[k-1]
			}
			if s[i] == s[k] {
				k++
			}
			pf[i] = k
		}
		// Longest whole-multiple periodic prefix.
		for i := len(s) - 1; i > 0; i-- {
			if i+1 <= bestCovered {
				break
			}
			p := (i + 1) - pf[i]
			if p > (i+1)/2 || (i+1)%p != 0 {
				continue
			}
			bestCovered = i + 1
			preLen, period, reps = a, p, (i+1)/p
			break
		}
	}
	if bestCovered == 0 {
		return L, 0, 0
	}
	return preLen, period, reps
}

// ---------------------------------------------------------------------------
// Segment template fitting and merging

type segTemplate struct {
	pre, body, tail []fitOp
	reps            int
}

func compressOps(ops []fitOp) segTemplate {
	ids := make([]int32, len(ops))
	seen := map[fitOp]int32{}
	for i, op := range ops {
		id, ok := seen[op]
		if !ok {
			id = int32(len(seen))
			seen[op] = id
		}
		ids[i] = id
	}
	pre, p, reps := findPeriod(ids)
	if reps < 2 {
		return segTemplate{pre: ops}
	}
	return segTemplate{
		pre:  ops[:pre],
		body: ops[pre : pre+p],
		reps: reps,
		tail: ops[pre+p*reps:],
	}
}

func flatten(t segTemplate) []fitOp {
	out := make([]fitOp, 0, len(t.pre)+t.reps*len(t.body)+len(t.tail))
	out = append(out, t.pre...)
	for i := 0; i < t.reps; i++ {
		out = append(out, t.body...)
	}
	return append(out, t.tail...)
}

// fitSegment builds the union template for segment s across all rank
// classes: each class representative's stream is period-compressed, and
// the compressed parts are merged pairwise with an LCS alignment (ops
// match on type and direction; the earlier — richer — class's volume
// wins). When repetition counts disagree the streams are merged flat.
// Correctness does not rest on this heuristic: verifyFit regenerates
// every rank afterwards and fails the fit on any divergence.
func fitSegment(reps []int, rankOps [][][]fitOp, s int) (*SegPhase, error) {
	tpls := make([]segTemplate, len(reps))
	for i, r := range reps {
		tpls[i] = compressOps(rankOps[r][s])
	}
	// Repetition counts must agree among the classes that found any;
	// otherwise fall back to flat streams.
	agreed := 0
	flat := false
	for _, t := range tpls {
		if t.reps == 0 || len(flatten(t)) == 0 {
			continue
		}
		if agreed == 0 {
			agreed = t.reps
		} else if t.reps != agreed {
			flat = true
		}
	}
	if flat {
		for i := range tpls {
			tpls[i] = segTemplate{pre: flatten(tpls[i])}
		}
		agreed = 0
	}
	// A class whose stream did not decompose (reps 0, e.g. an empty or
	// aperiodic boundary stream) merges into the prologue only when the
	// union itself is flat; against a periodic union its stream must
	// align with pre+body+tail, which flattening the union would lose —
	// flatten everything in that case too.
	if agreed > 0 {
		for _, t := range tpls {
			if t.reps == 0 && len(t.pre) > 0 {
				for i := range tpls {
					tpls[i] = segTemplate{pre: flatten(tpls[i])}
				}
				agreed = 0
				break
			}
		}
	}
	union := tpls[0]
	var err error
	for _, t := range tpls[1:] {
		if union.pre, err = lcsMerge(union.pre, t.pre); err != nil {
			return nil, err
		}
		if union.body, err = lcsMerge(union.body, t.body); err != nil {
			return nil, err
		}
		if union.tail, err = lcsMerge(union.tail, t.tail); err != nil {
			return nil, err
		}
	}
	union.reps = agreed
	seg := &SegPhase{
		Pre:  toModelOps(union.pre),
		Body: toModelOps(union.body),
		Reps: union.reps,
		Tail: toModelOps(union.tail),
	}
	return seg, nil
}

func toModelOps(ops []fitOp) []Op {
	if len(ops) == 0 {
		return nil
	}
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = Op{Type: op.typ, Dir: op.dir, Vol: op.vol}
	}
	return out
}

const lcsCellCap = 16 << 20

// lcsMerge returns the shortest common supersequence of a and b where ops
// match on (type, dir); matched positions keep a's volume (a comes from
// the richer class). Between matches, a's extra ops precede b's.
func lcsMerge(a, b []fitOp) ([]fitOp, error) {
	if len(a) == 0 {
		return b, nil
	}
	if len(b) == 0 || sameOps(a, b) == nil {
		return a, nil
	}
	m, n := len(a), len(b)
	if m*n > lcsCellCap {
		return nil, fmt.Errorf("synth: class streams too large to align (%d x %d ops)", m, n)
	}
	match := func(x, y fitOp) bool { return x.typ == y.typ && x.dir == y.dir }
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([]int32, (m+1)*(n+1))
	idx := func(i, j int) int { return i*(n+1) + j }
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			if match(a[i], b[j]) {
				dp[idx(i, j)] = dp[idx(i+1, j+1)] + 1
			} else if dp[idx(i+1, j)] >= dp[idx(i, j+1)] {
				dp[idx(i, j)] = dp[idx(i+1, j)]
			} else {
				dp[idx(i, j)] = dp[idx(i, j+1)]
			}
		}
	}
	out := make([]fitOp, 0, m+n-int(dp[idx(0, 0)]))
	i, j := 0, 0
	for i < m && j < n {
		switch {
		case match(a[i], b[j]) && dp[idx(i, j)] == dp[idx(i+1, j+1)]+1:
			out = append(out, a[i])
			i++
			j++
		case dp[idx(i+1, j)] >= dp[idx(i, j+1)]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}

// checkConjugates enforces the invariant that makes scaled worlds
// replayable: within each segment component, every direction's send count
// must equal the conjugate direction's receive count, so any pair of
// neighbours — including pairs that only exist at larger worlds — posts
// matched sends and receives.
func checkConjugates(seg *SegPhase, dirs []Dir) error {
	conj := make([]int, len(dirs))
	for i, d := range dirs {
		conj[i] = -1
		c := d.Conjugate()
		for j, e := range dirs {
			if e == c {
				conj[i] = j
				break
			}
		}
	}
	check := func(ops []Op, part string) error {
		sends := make([]int, len(dirs))
		recvs := make([]int, len(dirs))
		for _, op := range ops {
			switch op.Type {
			case trace.Send, trace.Isend:
				sends[op.Dir]++
			case trace.Recv, trace.Irecv:
				recvs[op.Dir]++
			}
		}
		for i := range dirs {
			if sends[i] == 0 {
				continue
			}
			if conj[i] < 0 || recvs[conj[i]] != sends[i] {
				got := 0
				if conj[i] >= 0 {
					got = recvs[conj[i]]
				}
				return fmt.Errorf("synth: %s sends %d via %s but receives %d via the conjugate direction — the union template is unbalanced, so pairs appearing at larger worlds would post unmatched messages (all-boundary recordings, e.g. a 2x2 grid, often cannot pin the template; refit from a trace with at least one higher-degree rank class)",
					part, sends[i], dirs[i], got)
			}
		}
		return nil
	}
	if err := check(seg.Pre, "prologue"); err != nil {
		return err
	}
	if err := check(seg.Body, "body"); err != nil {
		return err
	}
	return check(seg.Tail, "tail")
}

// ---------------------------------------------------------------------------
// Script compression, dedup and verification

func phaseKey(ph Phase) string {
	if ph.Coll != nil {
		return fmt.Sprintf("c|%d|%x|%x", ph.Coll.Type,
			math.Float64bits(ph.Coll.Comm), math.Float64bits(ph.Coll.Red))
	}
	key := fmt.Sprintf("s|%d|", ph.Seg.Reps)
	for _, ops := range [][]Op{ph.Seg.Pre, ph.Seg.Body, ph.Seg.Tail} {
		for _, op := range ops {
			key += fmt.Sprintf("%d.%d.%x,", op.Type, op.Dir, math.Float64bits(op.Vol))
		}
		key += ";"
	}
	return key
}

func compressScript(script []int) (prologue, body []int, reps int, tail []int) {
	ids := make([]int32, len(script))
	for i, s := range script {
		ids[i] = int32(s)
	}
	pre, p, r := findPeriod(ids)
	if r < 2 {
		return script, nil, 0, nil
	}
	return script[:pre], script[pre : pre+p], r, script[pre+p*r:]
}

// verifyFit regenerates every rank at the recorded size and compares it
// action-for-action against the input trace. This is the load-bearing
// correctness check of the whole fit: everything upstream is heuristic,
// this is exact.
func verifyFit(m *Model, perRank [][]trace.Action) error {
	g, err := NewGen(m, Spec{World: m.World, GridW: m.GridW, GridH: m.GridH})
	if err != nil {
		return fmt.Errorf("synth: fitted model does not instantiate: %w", err)
	}
	for r, want := range perRank {
		got, err := g.Actions(r)
		if err != nil {
			return fmt.Errorf("synth: regenerating rank %d: %w", r, err)
		}
		if len(want) == 0 || want[0].Type != trace.CommSize {
			// Input had no comm_size preamble; drop the generated one.
			got = got[1:]
		}
		if err := sameActions(want, got); err != nil {
			return fmt.Errorf("synth: fit does not reproduce rank %d: %w (the trace does not decompose into the model's stencil+collective shape)", r, err)
		}
	}
	return nil
}

// sameActions compares a recorded stream against a regenerated one.
// Volumes are compared exactly for the kinds the model pins (compute,
// sends, collectives); receive-side volumes are advisory in the format
// and ignored, as are the flag-like fields.
func sameActions(want, got []trace.Action) error {
	if len(want) != len(got) {
		return fmt.Errorf("action counts differ (recorded %d, regenerated %d)", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Type != g.Type {
			return fmt.Errorf("action %d: recorded %s, regenerated %s", i, w.Type, g.Type)
		}
		if isP2P(w.Type) && w.Peer != g.Peer {
			return fmt.Errorf("action %d (%s): recorded peer %d, regenerated %d", i, w.Type, w.Peer, g.Peer)
		}
		switch w.Type {
		case trace.Recv, trace.Irecv, trace.Wait, trace.WaitAll, trace.Barrier:
			continue
		}
		if w.Volume != g.Volume || w.Volume2 != g.Volume2 {
			return fmt.Errorf("action %d (%s): recorded volume %g/%g, regenerated %g/%g",
				i, w.Type, w.Volume, w.Volume2, g.Volume, g.Volume2)
		}
	}
	return nil
}
