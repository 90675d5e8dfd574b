package synth

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"tireplay/internal/trace"
)

// Gen instantiates a Model at a target world size described by a Spec.
// A Gen is immutable once built and safe for concurrent use: every rank's
// stream comes from its own RankGen cursor, so a sweep can generate 16k
// rank streams in parallel without sharing mutable state. Generation is
// deterministic and byte-reproducible: the same (model, spec) pair always
// yields the same traces, whatever the worker count.
type Gen struct {
	m    *Model
	spec Spec

	world, gw, gh int
	reps          int   // effective top-level script body reps
	scriptLen     int   // phases in the expanded script (see phaseAt)
	segReps       []int // effective SegPhase reps per phase index

	compScale float64
	byteScale float64
	collScale float64
}

// NewGen validates the model/spec pair and resolves the target grid and
// scaling factors.
func NewGen(m *Model, spec Spec) (*Gen, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if spec.World <= 0 {
		return nil, fmt.Errorf("synth: spec needs a positive world, got %d", spec.World)
	}
	if spec.Jitter < 0 || spec.Jitter >= 1 || math.IsNaN(spec.Jitter) {
		return nil, fmt.Errorf("synth: jitter %g outside [0,1)", spec.Jitter)
	}
	gw, gh, err := chooseGrid(m, spec)
	if err != nil {
		return nil, err
	}
	rho := float64(spec.World) / float64(m.World)
	g := &Gen{
		m:         m,
		spec:      spec,
		world:     spec.World,
		gw:        gw,
		gh:        gh,
		compScale: math.Pow(rho, spec.Law.Compute),
		byteScale: math.Pow(rho, spec.Law.Bytes),
		collScale: math.Pow(rho, spec.Law.Coll),
	}
	// The reps law stretches the outermost repetition structure: the
	// top-level script body when the model has one, otherwise the
	// per-segment repeat counts (apps like LU keep their whole iteration
	// loop inside segment phases, so the script body is empty).
	repsScale := math.Pow(rho, spec.Law.Reps)
	scaleReps := func(n int) (int, error) {
		s := math.Round(float64(n) * repsScale)
		if !(s < math.MaxInt) { // NaN, infinite or past an int
			return 0, fmt.Errorf("synth: reps law %g scales %d repetitions to %g at world %d, more than an int holds",
				spec.Law.Reps, n, s, spec.World)
		}
		return max(int(s), 1), nil
	}
	g.reps = m.Reps
	scriptScaled := m.Reps > 0 && len(m.Body) > 0
	if scriptScaled {
		if g.reps, err = scaleReps(m.Reps); err != nil {
			return nil, err
		}
	}
	g.segReps = make([]int, len(m.Phases))
	for i, ph := range m.Phases {
		if ph.Seg == nil {
			continue
		}
		g.segReps[i] = ph.Seg.Reps
		if !scriptScaled && ph.Seg.Reps > 0 {
			if g.segReps[i], err = scaleReps(ph.Seg.Reps); err != nil {
				return nil, err
			}
		}
	}
	// The script is indexed, not expanded (phaseAt), but its length must
	// still be an int.
	ends := len(m.Prologue) + len(m.Tail)
	if len(m.Body) > 0 && g.reps > (math.MaxInt-ends)/len(m.Body) {
		return nil, fmt.Errorf("synth: %d repetitions of a %d-phase script body at world %d are more phases than an int holds",
			g.reps, len(m.Body), spec.World)
	}
	g.scriptLen = ends + g.reps*len(m.Body)
	if n := g.actionBound(); n > maxWorldActions {
		return nil, fmt.Errorf("synth: world %d generates up to %d actions, more than the %d one sweep cell may replay",
			spec.World, n, maxWorldActions)
	}
	return g, nil
}

// maxWorldActions bounds the actions a generator may yield over its whole
// world, all of which one sweep cell replays: about six minutes of replay
// at 3 M actions/s. LU class S fitted on 16 ranks and strong-scaled to
// 16384 yields 109 M, bounded at 110 M.
const maxWorldActions = 1 << 30

// actionBound returns an upper bound on the actions the generator yields
// over its world, saturating at math.MaxInt, without expanding the script:
// every rank opens with comm_size, then yields at most one action per
// segment op and two per collective phase (its compute burst and the
// collective) over the prologue, reps copies of the body and the tail.
// Coalescing compute bursts only lowers the count.
func (g *Gen) actionBound() int {
	m := g.m
	phases := func(ids []int) int {
		n := 0
		for _, i := range ids {
			c := 2
			if seg := m.Phases[i].Seg; seg != nil {
				c = satAdd(len(seg.Pre)+len(seg.Tail), satMul(g.segReps[i], len(seg.Body)))
			}
			n = satAdd(n, c)
		}
		return n
	}
	perRank := satAdd(satAdd(satAdd(1, phases(m.Prologue)), satMul(g.reps, phases(m.Body))), phases(m.Tail))
	return satMul(perRank, g.world)
}

// satAdd and satMul add and multiply non-negative ints, saturating at
// math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if b != 0 && a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// phaseAt returns the model phase at position i of the expanded script:
// the prologue, then reps copies of the body, then the tail.
func (g *Gen) phaseAt(i int) int {
	m := g.m
	if i < len(m.Prologue) {
		return m.Prologue[i]
	}
	i -= len(m.Prologue)
	body := g.reps * len(m.Body)
	if i < body {
		return m.Body[i%len(m.Body)]
	}
	return m.Tail[i-body]
}

// World returns the target world size.
func (g *Gen) World() int { return g.world }

// Grid returns the resolved target rank grid.
func (g *Gen) Grid() (w, h int) { return g.gw, g.gh }

// chooseGrid resolves the target rank grid: an explicit spec grid wins;
// a 1D recording stays 1D; otherwise the divisor pair of the target world
// closest to the recorded aspect ratio is chosen (wider on ties, matching
// npb's xdim >= ydim). Models with XOR (butterfly) directions prefer
// power-of-two widths so the pairing stays total on each row.
func chooseGrid(m *Model, spec Spec) (int, int, error) {
	if spec.GridW != 0 || spec.GridH != 0 {
		if spec.GridW <= 0 || spec.GridH <= 0 || spec.GridW*spec.GridH != spec.World {
			return 0, 0, fmt.Errorf("synth: grid %dx%d does not tile world %d",
				spec.GridW, spec.GridH, spec.World)
		}
		return spec.GridW, spec.GridH, nil
	}
	if m.GridH == 1 {
		return spec.World, 1, nil
	}
	if m.GridW == 1 {
		return 1, spec.World, nil
	}
	hasXor := false
	for _, d := range m.Dirs {
		if d.Kind == DirXor {
			hasXor = true
		}
	}
	want := math.Log(float64(m.GridW) / float64(m.GridH))
	bestW, bestDev := 0, math.Inf(1)
	pick := func(w int) {
		dev := math.Abs(math.Log(float64(w)/float64(spec.World/w)) - want)
		if dev < bestDev-1e-12 || (dev <= bestDev+1e-12 && w > bestW) {
			bestW, bestDev = w, dev
		}
	}
	// The divisors in ascending order, from the pairs (d, world/d) with d up
	// to the square root: pick breaks near-ties by order.
	var divs []int
	for d := 1; d <= spec.World/d; d++ {
		if spec.World%d == 0 {
			divs = append(divs, d, spec.World/d)
		}
	}
	slices.Sort(divs)
	divs = slices.Compact(divs) // a square's root came twice
	for _, w := range divs {
		if hasXor && w&(w-1) != 0 {
			continue // keep butterflies total: power-of-two rows only
		}
		pick(w)
	}
	if bestW == 0 {
		// No power-of-two divisor matched (odd world with XOR dirs);
		// fall back to the plain aspect search.
		for _, w := range divs {
			pick(w)
		}
	}
	return bestW, spec.World / bestW, nil
}

// Actions materialises one rank's synthetic stream.
func (g *Gen) Actions(rank int) ([]trace.Action, error) {
	rg, err := g.Rank(rank)
	if err != nil {
		return nil, err
	}
	var out []trace.Action
	for {
		a, ok, err := rg.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, a)
	}
}

// WriteDir writes every rank's stream into dir as per-process trace files
// (SG_process<rank>.trace, or .tib when binary is set), creating dir if
// needed. Returns the written file paths in rank order.
func (g *Gen) WriteDir(dir string, binary bool) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, g.world)
	for rank := 0; rank < g.world; rank++ {
		name := trace.ProcessFileName(rank)
		if binary {
			name = trace.BinaryFileName(rank)
		}
		path := filepath.Join(dir, name)
		if err := g.writeRank(path, rank, binary); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func (g *Gen) writeRank(path string, rank int, binary bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rg, err := g.Rank(rank)
	if err != nil {
		f.Close()
		return err
	}
	var write func(trace.Action) error
	var flush func() error
	if binary {
		bw := trace.NewBinaryWriter(f)
		write, flush = bw.Write, bw.Flush
	} else {
		tw := trace.NewWriter(f)
		write, flush = tw.Write, tw.Flush
	}
	for {
		a, ok, err := rg.Next()
		if err != nil {
			f.Close()
			return err
		}
		if !ok {
			break
		}
		if err := write(a); err != nil {
			f.Close()
			return err
		}
	}
	if err := flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Per-rank streaming cursor

// RankGen streams one rank's synthetic actions. It implements the replay
// engine's Source interface (Next() (trace.Action, bool, error)) so a
// replay can consume synthetic ranks without materialising them; a 16k
// rank stream costs a fixed few-hundred-byte cursor, not a trace file.
// Steady-state Next() allocates nothing.
type RankGen struct {
	g         *Gen
	rank      int
	col, row  int
	peers     []int32 // peer rank per direction, -1 when absent
	phaseIdx  int
	part      int // 0 pre, 1 body, 2 tail
	opIdx     int
	rep       int
	collComp  bool // collective phase: compute burst already folded in
	pending   float64
	pendReqs  int
	staged    trace.Action
	hasStaged bool
	sentSize  bool
	done      bool
	rng       splitmix64
}

// Rank returns a fresh streaming cursor for one rank.
func (g *Gen) Rank(rank int) (*RankGen, error) {
	if rank < 0 || rank >= g.world {
		return nil, fmt.Errorf("synth: rank %d outside world of size %d", rank, g.world)
	}
	col, row := rank%g.gw, rank/g.gw
	r := &RankGen{
		g:     g,
		rank:  rank,
		col:   col,
		row:   row,
		peers: make([]int32, len(g.m.Dirs)),
		rng:   splitmix64{state: g.spec.Seed ^ (uint64(rank)+1)*0x9E3779B97F4A7C15},
	}
	for i, d := range g.m.Dirs {
		r.peers[i] = -1
		switch d.Kind {
		case DirOffset:
			c, rw := col+d.DX, row+d.DY
			if c >= 0 && c < g.gw && rw >= 0 && rw < g.gh {
				r.peers[i] = int32(rw*g.gw + c)
			}
		case DirXor:
			c := col ^ (1 << d.Bit)
			if c < g.gw {
				r.peers[i] = int32(row*g.gw + c)
			}
		}
	}
	return r, nil
}

// Next returns the rank's next action. The stream opens with comm_size
// and coalesces consecutive compute volumes into single bursts, exactly
// mirroring how the acquisition recorder flushes pending flops before
// each MPI call — this is what makes regenerated boundary ranks
// byte-identical to recorded ones.
func (r *RankGen) Next() (trace.Action, bool, error) {
	if !r.sentSize {
		r.sentSize = true
		return trace.Action{Proc: r.rank, Type: trace.CommSize, Peer: -1, Volume: float64(r.g.world)}, true, nil
	}
	if r.hasStaged {
		a := r.staged
		r.hasStaged = false
		return a, true, nil
	}
	if r.done {
		return trace.Action{}, false, nil
	}
	for {
		a, ok := r.rawNext()
		if !ok {
			r.done = true
			if r.pending > 0 {
				burst := r.pending
				r.pending = 0
				return trace.Action{Proc: r.rank, Type: trace.Compute, Peer: -1, Volume: burst}, true, nil
			}
			return trace.Action{}, false, nil
		}
		if a.Type == trace.Compute {
			r.pending += a.Volume
			continue
		}
		if r.pending > 0 {
			r.staged = a
			r.hasStaged = true
			burst := r.pending
			r.pending = 0
			return trace.Action{Proc: r.rank, Type: trace.Compute, Peer: -1, Volume: burst}, true, nil
		}
		return a, true, nil
	}
}

// rawNext yields the next surviving (dir-filtered, scaled) action before
// compute coalescing.
func (r *RankGen) rawNext() (trace.Action, bool) {
	g := r.g
	for {
		if r.phaseIdx >= g.scriptLen {
			return trace.Action{}, false
		}
		phase := g.phaseAt(r.phaseIdx)
		ph := &g.m.Phases[phase]
		if ph.Coll != nil {
			c := ph.Coll
			if c.Comp > 0 && !r.collComp {
				r.collComp = true
				return trace.Action{Proc: r.rank, Type: trace.Compute, Peer: -1, Volume: c.Comp * g.compScale}, true
			}
			r.collComp = false
			r.phaseIdx++
			return trace.Action{
				Proc: r.rank, Type: c.Type, Peer: -1,
				Volume: c.Comm * g.collScale, Volume2: c.Red * g.compScale,
			}, true
		}
		seg := ph.Seg
		var ops []Op
		switch r.part {
		case 0:
			ops = seg.Pre
		case 1:
			ops = seg.Body
		default:
			ops = seg.Tail
		}
		if r.opIdx >= len(ops) {
			segR := g.segReps[phase]
			switch r.part {
			case 0:
				r.opIdx = 0
				if segR > 0 && len(seg.Body) > 0 {
					r.part, r.rep = 1, 0
				} else {
					r.part = 2
				}
			case 1:
				r.opIdx = 0
				r.rep++
				if r.rep >= segR {
					r.part = 2
				}
			default:
				r.part, r.opIdx, r.rep = 0, 0, 0
				r.phaseIdx++
			}
			continue
		}
		op := ops[r.opIdx]
		r.opIdx++
		if a, ok := r.emitOp(op); ok {
			return a, true
		}
	}
}

func (r *RankGen) emitOp(op Op) (trace.Action, bool) {
	g := r.g
	switch op.Type {
	case trace.Compute:
		vol := op.Vol * g.compScale
		if g.spec.Jitter > 0 {
			vol *= 1 + g.spec.Jitter*(2*r.rng.float64()-1)
		}
		return trace.Action{Proc: r.rank, Type: trace.Compute, Peer: -1, Volume: vol}, true
	case trace.Send, trace.Isend:
		p := r.peers[op.Dir]
		if p < 0 {
			return trace.Action{}, false
		}
		if op.Type == trace.Isend {
			r.pendReqs++
		}
		return trace.Action{Proc: r.rank, Type: op.Type, Peer: int(p), Volume: op.Vol * g.byteScale}, true
	case trace.Recv, trace.Irecv:
		p := r.peers[op.Dir]
		if p < 0 {
			return trace.Action{}, false
		}
		if op.Type == trace.Irecv {
			r.pendReqs++
		}
		return trace.Action{Proc: r.rank, Type: op.Type, Peer: int(p)}, true
	case trace.Wait:
		if op.Dir >= 0 && r.peers[op.Dir] < 0 {
			return trace.Action{}, false
		}
		if r.pendReqs > 0 {
			r.pendReqs--
		}
		return trace.Action{Proc: r.rank, Type: trace.Wait, Peer: -1}, true
	case trace.WaitAll:
		if r.pendReqs == 0 {
			return trace.Action{}, false
		}
		r.pendReqs = 0
		return trace.Action{Proc: r.rank, Type: trace.WaitAll, Peer: -1}, true
	}
	return trace.Action{}, false
}

// splitmix64 is the deterministic jitter stream; hand-rolled (same as the
// fault injector's) so generated traces are stable across Go releases.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (r *splitmix64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
