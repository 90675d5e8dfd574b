package replay

import (
	"errors"
	"fmt"
	"time"

	"tireplay/internal/platform"
	"tireplay/internal/simx"
	"tireplay/internal/trace"
)

// This file implements shared-prefix forking: a group of replays that agree
// on the platform, the fault stream and an action prefix runs that prefix
// once on a donor kernel, parks every rank at its divergence point, checks
// that the donor quiesced (simx.Kernel.Quiescent) and resumes each member,
// on a kernel of its own, from the recorded park times. The
// time-independence of the traces is what makes the result provably
// identical to a from-scratch run — and a post-hoc safety check falls back
// to from-scratch whenever the proof obligations don't hold, so forking is
// an optimisation, never a semantic change.

// ErrForkUnsafe reports that a forked replay could not be proven equivalent
// to a from-scratch run: a post-divergence activity overlapped a resource
// the prefix was still using, an exact completion-time tie made the merged
// trace order ambiguous, or the member's platform numbers its
// resources differently from the donor's. Callers rerun the member from
// scratch.
var ErrForkUnsafe = errors.New("replay: forked run not provably equivalent")

// Forkable reports whether a replay configuration may participate in a
// shared-prefix fork group at all. Custom registries are opaque (a handler
// may keep state across the cut), and fail-stops without a checkpoint policy
// play out inside the kernel — killing parked ranks the donor cannot
// represent.
func (c *Config) Forkable() bool {
	return c.Registry == nil && !(c.Faults.FailStops() && c.Ckpt == nil)
}

// CollectiveDependent reports whether replaying an action depends on
// Config.Collectives — the first such action on each rank is where replays
// that differ only in their collective algorithm diverge. comm_size is not
// in the family: it validates the world size and touches no kernel state.
func CollectiveDependent(t trace.ActionType) bool {
	switch t {
	case trace.Bcast, trace.Reduce, trace.AllReduce, trace.Barrier,
		trace.Gather, trace.AllGather, trace.AllToAll, trace.Scatter:
		return true
	}
	return false
}

// PrefixPlan describes the longest shareable prefix of a trace set: actions
// [0, Cuts[r]) of rank r replay identically for every member of a fork
// group.
type PrefixPlan struct {
	// Cuts is the per-rank count of shared actions.
	Cuts []int
	// Actions is the total number of shared actions (sum of Cuts).
	Actions int64
}

// PlanPrefix streams each rank's trace once and computes the shared prefix
// for an n-rank fork group. With collCut set the prefix stops at each rank's
// first collective-dependent action (members differ in their collective
// algorithm); otherwise it covers the whole trace.
//
// visit must replay rank r's actions in order into yield, stopping early
// when yield returns false — the sweep trace set streams from mmap without
// materialising anything.
//
// ok is false when the prefix is not safely parkable: a send/recv pair
// straddles the cut (the donor would deadlock or fail to quiesce) or a rank
// would park with outstanding Irecv requests its resumed half expects to
// wait on. A false plan simply means the group replays from scratch.
func PlanPrefix(n int, collCut bool, visit func(rank int, yield func(trace.Action) bool) error) (plan *PrefixPlan, ok bool, err error) {
	plan = &PrefixPlan{Cuts: make([]int, n)}
	// balance[pair(s, d)] counts prefix sends s->d minus prefix recvs of d
	// from s; every pair must come out zero or the rendezvous state straddles
	// the cut. Only the pairs the prefix uses get an entry: a dense n*n matrix
	// would take 2 GiB at 16k ranks.
	balance := make(map[int64]int64)
	pair := func(s, d int) int64 { return int64(s)*int64(n) + int64(d) }
	for r := 0; r < n; r++ {
		pending := 0
		parkable := true
		err := visit(r, func(a trace.Action) bool {
			if collCut && CollectiveDependent(a.Type) {
				return false
			}
			switch a.Type {
			case trace.Send, trace.Isend:
				if a.Peer >= 0 && a.Peer < n {
					balance[pair(r, a.Peer)]++
				}
			case trace.Recv:
				if a.Peer >= 0 && a.Peer < n {
					balance[pair(a.Peer, r)]--
				}
			case trace.Irecv:
				if a.Peer >= 0 && a.Peer < n {
					balance[pair(a.Peer, r)]--
				}
				pending++
			case trace.Wait:
				if pending == 0 {
					parkable = false // the replay itself will error here
					return false
				}
				pending--
			case trace.WaitAll:
				pending = 0
			}
			plan.Cuts[r]++
			return true
		})
		if err != nil {
			return nil, false, err
		}
		if !parkable {
			return nil, false, nil
		}
		// A rank cut mid-trace must not park with outstanding Irecvs: the
		// resumed half would wait on requests only the donor ever held. A
		// full-trace cut replays nothing afterwards, so leftovers are fine
		// as long as they were matched (the balance check below).
		if pending != 0 && plan.Cuts[r] < fullLen(visit, r) {
			return nil, false, nil
		}
	}
	for _, d := range balance {
		if d != 0 {
			return nil, false, nil
		}
	}
	for _, c := range plan.Cuts {
		plan.Actions += int64(c)
	}
	return plan, true, nil
}

// fullLen counts rank r's total actions; only consulted on the rare
// park-with-pending path, so the extra streaming pass stays off the common
// planner path.
func fullLen(visit func(rank int, yield func(trace.Action) bool) error, r int) int {
	total := 0
	_ = visit(r, func(trace.Action) bool { total++; return true })
	return total
}

// forkRecord is one completed activity as observed by the fork recorder —
// the same fields the timed-trace tracer callbacks carry.
type forkRecord struct {
	comm       bool
	a, b       string // proc, host for computes; src, dst procs for comms
	vol        float64
	start, end float64
}

func (rec *forkRecord) emit(tr simx.Tracer) {
	if rec.comm {
		tr.Comm(rec.a, rec.b, rec.vol, rec.start, rec.end)
	} else {
		tr.Compute(rec.a, rec.b, rec.vol, rec.start, rec.end)
	}
}

// forkRecorder observes a fork-group run. On the donor it accumulates the
// per-resource usage horizon (the last instant the prefix used each host and
// link) and, when the group needs traced output, the records themselves. On
// a member it checks each completed activity against the donor's horizon and
// completion instants on the fly and streams the merged donor and member
// records to the member's tracer.
//
// Resources are numbered densely: hosts by Host.ID, then the route walk's
// link indices (declared links, then one loopback per host) offset by the
// host count. Builds of one platform description number identically, so a
// donor's horizons index a member's kernel directly.
type forkRecorder struct {
	k     *simx.Kernel
	procs map[string]*simx.Host // deployment proc name -> its host
	nh    int32                 // host count: link indices start after it

	// Donor side.
	keep    bool // retain records (timed traces, profiles, metrics)
	recs    []forkRecord
	lastEnd []float64

	// Member side: the donor whose horizons and completion instants it
	// validates against and whose records it merges into out, next being the
	// first donor record the merge has not yet passed.
	donor  *forkRecorder
	out    simx.Tracer
	next   int
	unsafe bool

	scratch []int32
}

// newForkRecorder resolves every deployment process to its host once, so
// observing an activity builds no string.
func newForkRecorder(k *simx.Kernel, depl *platform.Deployment) *forkRecorder {
	procs := make(map[string]*simx.Host, len(depl.Processes))
	for _, pd := range depl.Processes {
		procs[pd.Function] = k.Host(pd.Host) // nil for an unknown host: newRun rejects it
	}
	return &forkRecorder{k: k, procs: procs, nh: int32(k.Hosts())}
}

// resourceCount is the size of the kernel's resource numbering.
func resourceCount(k *simx.Kernel) int { return 2*k.Hosts() + k.Links() }

// resources appends the numbers of the resources an activity occupied: the
// host for computes, every crossed link for transfers (the host-private
// loopback when source and destination ranks share a host).
func (t *forkRecorder) resources(comm bool, a, b string, ids []int32) []int32 {
	if !comm {
		return append(ids, int32(t.k.Host(b).ID()))
	}
	sh, dh := t.procs[a], t.procs[b]
	if sh == nil || dh == nil {
		// A proc outside the deployment cannot be attributed; refuse the fork.
		t.unsafe = true
		return ids
	}
	n := len(ids)
	ids = t.k.AppendRouteLinks(sh, dh, ids)
	for i := n; i < len(ids); i++ {
		ids[i] += t.nh
	}
	return ids
}

func (t *forkRecorder) observe(comm bool, a, b string, vol, start, end float64) {
	rec := forkRecord{comm, a, b, vol, start, end}
	t.scratch = t.resources(comm, a, b, t.scratch[:0])
	if d := t.donor; d != nil {
		// Donor records completing strictly earlier come first, the order a
		// two-way merge of the two completion-ordered streams gives. A donor
		// record completing at this very instant would make that order
		// ambiguous, so the member refuses the tie.
		for t.next < len(d.recs) && d.recs[t.next].end < end {
			if t.out != nil {
				d.recs[t.next].emit(t.out)
			}
			t.next++
		}
		if t.next < len(d.recs) && d.recs[t.next].end == end {
			t.unsafe = true
		}
		if t.out != nil {
			rec.emit(t.out)
		}
		// Member: every resumed activity must start at or after the donor
		// stopped using each of its resources, or the contention the prefix
		// run saw is not the contention a from-scratch run would see.
		for _, res := range t.scratch {
			if start < d.lastEnd[res] {
				t.unsafe = true
			}
		}
		return
	}
	if t.keep {
		t.recs = append(t.recs, rec)
	}
	for _, res := range t.scratch {
		if end > t.lastEnd[res] {
			t.lastEnd[res] = end
		}
	}
}

func (t *forkRecorder) Compute(proc, host string, flops, start, end float64) {
	t.observe(false, proc, host, flops, start, end)
}

func (t *forkRecorder) Comm(src, dst string, bytes, start, end float64) {
	t.observe(true, src, dst, bytes, start, end)
}

// PrefixOptions parameterises a donor run.
type PrefixOptions struct {
	// Cuts is the per-rank shared-action count from PlanPrefix.
	Cuts []int
	// RecordTrace retains the prefix's per-activity records so members can
	// stream them, merged with their own, into byte-identical timed traces,
	// profiles and metrics. It also makes members reject an activity
	// completing at an instant a prefix activity also completed: the merged
	// order would be ambiguous, and every consumer of it is order-sensitive.
	RecordTrace bool
}

// PrefixRun is the shared product of replaying a fork group's common prefix
// once: the per-rank park times and park order, the recorded activities and
// the per-resource usage horizons. It is immutable after RunPrefix returns,
// so any number of members may fork from it concurrently.
type PrefixRun struct {
	depl *platform.Deployment
	opt  PrefixOptions

	park  []float64
	order []int
	rec   *forkRecorder

	// Actions is the number of trace actions the prefix replayed — work
	// every forked member inherits without re-simulating it.
	Actions int64
}

// RunPrefix replays actions [0, opt.Cuts[r]) of every rank on the build's
// kernel, parks the ranks, and checks that the kernel quiesced. cfg is the
// group's shared configuration; its Ckpt is ignored (members apply their own
// analytic policies) and its fault spec must not fail-stop (Forkable rules
// such groups out). Any error — including a donor that deadlocks or fails to
// quiesce on a prefix the planner accepted — simply means the group replays
// from scratch.
func RunPrefix(b *platform.Build, depl *platform.Deployment, cfg Config, sources []Source, opt PrefixOptions) (*PrefixRun, error) {
	if n := len(depl.Processes); len(opt.Cuts) != n {
		return nil, fmt.Errorf("replay: %d cuts for %d deployed processes", len(opt.Cuts), n)
	}
	if !cfg.Forkable() {
		return nil, fmt.Errorf("replay: configuration not forkable")
	}
	rec := newForkRecorder(b.Kernel, depl)
	rec.keep = opt.RecordTrace
	rec.lastEnd = make([]float64, resourceCount(b.Kernel))
	r, err := newRun(b, depl, cfg, sources, rec)
	if err != nil {
		return nil, err
	}
	pr := &PrefixRun{depl: depl, opt: opt, park: make([]float64, len(r.hosts)), rec: rec}
	r.prefix = pr
	for slot, cut := range opt.Cuts {
		r.spawnRank(slot).cut = int64(cut)
	}
	if _, err := r.k.Run(); err != nil {
		return nil, fmt.Errorf("replay: prefix run: %w", err)
	}
	if err := r.rankErr(); err != nil {
		return nil, err
	}
	if err := r.k.Quiescent(); err != nil {
		return nil, fmt.Errorf("replay: prefix did not quiesce: %w", err)
	}
	pr.Actions = r.actions()
	return pr, nil
}

// RunForked replays one member of the fork group from the shared prefix on
// b, a freshly built kernel of the group's platform: it skips each rank's
// first Cuts[r] actions, advances the rank to its recorded park time, and
// replays the rest. The member's own collective algorithm and analytic
// checkpoint policy apply; everything the prefix simulated is inherited from
// the donor, including its timed-trace records.
//
// When the donor recorded its trace, cfg.TimedTracer receives one
// completion-ordered stream as the run goes: each member record as it
// completes, preceded by the donor records that completed strictly earlier,
// and the donor's remaining records once the run ends — byte for byte what a
// from-scratch run would have emitted. On any error the tracer may hold a
// partial stream; callers discard it along with the run.
//
// An error wrapping ErrForkUnsafe means the equivalence proof failed for
// this member and it must be replayed from scratch; the donor run stays
// valid for other members.
func (pr *PrefixRun) RunForked(b *platform.Build, cfg Config, sources []Source) (*Result, error) {
	if !cfg.Forkable() {
		return nil, fmt.Errorf("replay: configuration not forkable")
	}
	if got, want := resourceCount(b.Kernel), len(pr.rec.lastEnd); got != want {
		return nil, fmt.Errorf("%w: member platform numbers %d resources, donor %d", ErrForkUnsafe, got, want)
	}
	rec := newForkRecorder(b.Kernel, pr.depl)
	rec.donor = pr.rec
	if pr.opt.RecordTrace {
		rec.out = cfg.TimedTracer
	}
	r, err := newRun(b, pr.depl, cfg, sources, rec)
	if err != nil {
		return nil, err
	}
	// Spawn in donor park order: ranks parked at the same instant resume in
	// the order they parked, so the event queue wakes them exactly as the
	// from-scratch interleaving would.
	for _, slot := range pr.order {
		if err := r.spawnRankResumed(slot, pr.opt.Cuts[slot], pr.park[slot]); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	makespan, runErr := r.k.Run()
	wall := time.Since(start)
	if err := r.rankErr(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("replay: simulation stalled: %w", runErr)
	}
	if rec.unsafe {
		return nil, fmt.Errorf("%w: post-divergence activity overlapped the prefix", ErrForkUnsafe)
	}
	if rec.out != nil {
		for i := rec.next; i < len(pr.rec.recs); i++ {
			pr.rec.recs[i].emit(rec.out)
		}
	}
	return r.result(makespan, pr.Actions+r.actions(), wall)
}

// spawnRankResumed creates the kernel process replaying rank slot's
// post-divergence actions: it skips the prefix on the source, and the rank
// sleeps to the park time before it continues.
func (r *run) spawnRankResumed(slot, cut int, park float64) error {
	src := r.sources[slot]
	for i := 0; i < cut; i++ {
		if _, ok, err := src.Next(); err != nil || !ok {
			return fmt.Errorf("replay: p%d trace shrank under fork (action %d of %d)", slot, i, cut)
		}
	}
	rk := r.spawnRank(slot)
	rk.p.cont, rk.park = contPark, park
	return nil
}
