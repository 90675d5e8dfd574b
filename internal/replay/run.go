package replay

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tireplay/internal/coll"
	"tireplay/internal/fifo"
	"tireplay/internal/platform"
	"tireplay/internal/simx"
	"tireplay/internal/smpi"
	"tireplay/internal/trace"
)

// Config parameterises a replay run.
type Config struct {
	// Model is the piece-wise linear MPI communication model applied to
	// point-to-point transfers; nil means smpi.Default().
	Model *smpi.Model
	// Registry binds action keywords to handlers; nil means Default().
	Registry *Registry
	// TimedTracer, when non-nil, receives the timed trace of the simulated
	// execution (the secondary output of Figure 4).
	TimedTracer simx.Tracer
	// Collectives selects the algorithm decomposing each collective action
	// into point-to-point schedules (see internal/coll). The zero value
	// replays every collective as the paper's linear star through rank 0;
	// coll.Auto selects per message size from the MPI model's segments.
	Collectives coll.Config
	// WorldSize is the communicator size the handlers see (comm_size
	// validation, peer range checks, collective fan-out). The world is
	// always the deployment: zero means the number of deployed processes,
	// and any other value than that number is rejected.
	WorldSize int
	// Faults is the availability profile injected into the run; nil replays
	// fault-free. Index clauses ("host:0") address the deployment's process
	// slots in order. Without Ckpt the recovery policy is abort: fail-stops
	// kill the affected ranks and Run returns a *FailedRanksError diagnosing
	// the lost work.
	Faults *platform.FaultSpec
	// Ckpt switches the recovery policy to coordinated checkpoint/restart:
	// the kernel simulates the fault-free schedule (degradation clauses
	// still injected), and the checkpoint overhead plus the rewind waste of
	// the spec's fail-stop clauses are applied analytically — exact because
	// the replay is deterministic. The Result carries the waste breakdown
	// in Resilience. Ckpt without Faults still pays the checkpoint writes.
	Ckpt *Ckpt
}

func (c *Config) setDefaults() {
	if c.Model == nil {
		c.Model = smpi.Default()
	}
	if c.Registry == nil {
		c.Registry = Default()
	}
}

// Result reports the outcome of a replay.
type Result struct {
	// SimulatedTime is the predicted execution time of the application on
	// the target platform — the primary output of the framework.
	SimulatedTime float64
	// Actions is the number of trace actions executed.
	Actions int64
	// WallTime is the host time the simulation itself took (Figure 9).
	WallTime time.Duration
	// Resilience is the checkpoint/restart waste breakdown; non-nil exactly
	// when Config.Ckpt was set, in which case SimulatedTime is its
	// Effective makespan.
	Resilience *Resilience
}

// Proc is the per-rank replayer context handed to action handlers. It
// holds only rank-local state; the mailboxes a rank meets its peers in live
// in the shared world.
type Proc struct {
	// Sim is the simulation process executing this rank's actions. With
	// built-in actions only (the default registry) it is a step process the
	// kernel calls on its own goroutine; with a registered handler it is a
	// coroutine, whose blocking operations the handler may use.
	Sim *simx.Proc
	// Rank is the process id of the trace being replayed.
	Rank int
	// N is the world size from the deployment.
	N int

	cfg   *Config
	world *world

	// pending is the FIFO of outstanding Irecv requests; the queue reuses
	// its backing array, so wait-heavy traces do not grow it per round.
	pending fifo.Queue[*simx.Comm]

	// steps is the rank's reusable collective-schedule buffer; its capacity
	// stabilises after the first few collectives, keeping the collective
	// steady state allocation-free like the point-to-point one.
	steps []coll.Step

	// The action in flight (see cont): wait is the handle the rank waits
	// on; a collective runs steps from index step, and shift is the send an
	// OpShift step posted alongside the receive in wait.
	cont  cont
	wait  *simx.Comm
	shift *simx.Comm
	step  int
}

// world is the replay state shared by every rank of one run. The kernel
// schedules at most one rank at a time, so no locking is needed.
type world struct {
	k *simx.Kernel
	n int

	// p2p holds the point-to-point mailbox of every (src,dst) pair that has
	// exchanged a message, created on first use: a rank pair's traffic
	// meets in one anonymous mailbox, no name is formatted or hashed, and
	// the table grows with the pairs that talk, not with the world squared.
	p2p pairTable
	// coll holds the collective mailbox of every (src,dst) pair, kept apart
	// from p2p so a collective message never meets a traced send. A pair's
	// collective messages match in the order both sides post them, MPI's
	// non-overtaking rule: a rank finishes each step's transfers before its
	// next step, and every schedule lists a pair's messages in the same
	// order on both sides, so the k-th send meets the k-th receive.
	coll pairTable
}

// pairTable maps directed rank pairs to anonymous mailboxes with open
// addressing keyed by src*n+dst: a dense n-by-n slice would cost O(n^2)
// memory per table, while the pairs that actually exchange messages are
// O(n) for the stencil and tree patterns traces show. keys holds
// src*n+dst+1 (0 = empty slot).
type pairTable struct {
	used int // occupied slots
	keys []int64
	vals []simx.MailboxID
}

// pairMbox resolves the src-to-dst mailbox of a pair table, creating it on
// first use: the steady state neither interns a mailbox nor allocates.
func (w *world) pairMbox(t *pairTable, src, dst int) simx.MailboxID {
	key := int64(src)*int64(w.n) + int64(dst) + 1
	if t.keys == nil {
		// Start small and let grow() right-size by the pairs the table
		// actually sees: dense tables (a linear star uses ~2n pairs) reach
		// O(n) capacity through log n geometric regrows; sparse ones never
		// pay for 2n slots up front.
		t.keys, t.vals = make([]int64, 64), make([]simx.MailboxID, 64)
	}
	mask := len(t.keys) - 1
	// Fibonacci-style multiplicative hash spreads the dense pair keys.
	i := int(uint64(key)*0x9E3779B97F4A7C15>>32) & mask
	for {
		switch t.keys[i] {
		case key:
			return t.vals[i]
		case 0:
			// Keep occupancy at or below half so probe chains stay short;
			// growth is geometric and bounded by the distinct pairs the
			// table ever sees (<= n^2), so it amortises away.
			if t.used >= (mask+1)/2 {
				t.grow()
				return w.pairMbox(t, src, dst)
			}
			id := w.k.NewMailbox()
			t.keys[i] = key
			t.vals[i] = id
			t.used++
			return id
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table, keeping every entry.
func (t *pairTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]int64, 2*len(oldKeys))
	t.vals = make([]simx.MailboxID, 2*len(oldVals))
	mask := len(t.keys) - 1
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := int(uint64(k)*0x9E3779B97F4A7C15>>32) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}

// Source yields the successive actions of one rank's trace. Implementations
// need not be safe for concurrent use; each rank owns its source.
type Source interface {
	// Next returns the next action, or ok=false at end of trace.
	Next() (a trace.Action, ok bool, err error)
}

// sliceSource iterates an in-memory action list.
type sliceSource struct {
	actions []trace.Action
	idx     int
}

func (s *sliceSource) Next() (trace.Action, bool, error) {
	if s.idx >= len(s.actions) {
		return trace.Action{}, false, nil
	}
	a := s.actions[s.idx]
	s.idx++
	return a, true, nil
}

// SliceSource wraps an action list as a Source.
func SliceSource(actions []trace.Action) Source {
	return &sliceSource{actions: actions}
}

// A mapped binary cursor streams records in place and is a Source as-is.
var _ Source = (*trace.BinaryCursor)(nil)

// scannerSource streams actions from a trace scanner.
type scannerSource struct{ sc *trace.Scanner }

func (s *scannerSource) Next() (trace.Action, bool, error) {
	if s.sc.Scan() {
		return s.sc.Action(), true, nil
	}
	return trace.Action{}, false, s.sc.Err()
}

// ScannerSource wraps a trace scanner as a Source, enabling the replay of
// traces too large to hold in memory.
func ScannerSource(sc *trace.Scanner) Source {
	return &scannerSource{sc: sc}
}

// run owns every piece of mutable state of one replay: the kernel (with its
// activity/comm pools and interning tables), the mailbox pair tables, the
// ranks, the per-rank error slots and the action counter. Nothing in this
// struct — or reachable from it — is shared with any other run, which is
// what lets a sweep execute many runs concurrently over one read-only
// trace; the inputs a caller may share between concurrent runs (Registry,
// *smpi.Model, Source backing arrays, the parsed platform description) are
// all immutable during a run.
type run struct {
	cfg     Config
	k       *simx.Kernel
	depl    *platform.Deployment
	hosts   []*simx.Host // hosts[slot] runs deployment slot's rank
	sources []Source
	world   *world
	ranks   []rank
	errs    []error

	// rankActions[slot] counts the actions rank slot completed. A plain
	// slice: the kernel schedules one rank at a time and k.Run establishes
	// the happens-before with the caller — which is also why the run needs
	// no atomic total, the per-slot counters sum up after k.Run returns.
	rankActions []int64
	// prefix receives the park times of a donor run's ranks (RunPrefix).
	prefix *PrefixRun
}

// rank replays one deployment slot's source: a resumable state machine the
// kernel steps. A waiting rank costs its Proc and no goroutine.
type rank struct {
	p   Proc
	r   *run
	src Source
	// cut is the number of actions a donor's rank replays before it parks
	// (RunPrefix); -1 replays the whole source.
	cut int64
	// park is the donor park time a forked member's rank sleeps to before
	// its first action (p.cont = contPark, RunForked).
	park float64
}

// newRun prepares one replay of the deployment on the build's kernel — the
// single constructor behind Run, RunPrefix and RunForked. It validates the
// deployment, the sources, the world size and the checkpoint protocol, sets
// the rate model and the tracer, injects the availability profile
// (degradation windows always, fail-stops under the abort policy) and
// resolves one host per deployment slot. Rank i of the traces replays on
// slot i; the caller spawns the ranks in the order its run needs.
func newRun(b *platform.Build, depl *platform.Deployment, cfg Config, sources []Source, tracer simx.Tracer) (*run, error) {
	n := len(depl.Processes)
	if n == 0 {
		return nil, fmt.Errorf("replay: empty deployment")
	}
	if len(sources) != n {
		return nil, fmt.Errorf("replay: %d sources for %d deployed processes", len(sources), n)
	}
	if cfg.WorldSize != 0 && cfg.WorldSize != n {
		return nil, fmt.Errorf("replay: world size %d differs from %d deployed processes", cfg.WorldSize, n)
	}
	if err := cfg.Ckpt.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	k := b.Kernel
	hosts := make([]*simx.Host, n)
	for i, pd := range depl.Processes {
		if hosts[i] = k.Host(pd.Host); hosts[i] == nil {
			return nil, fmt.Errorf("replay: deployment host %q not in platform", pd.Host)
		}
	}
	k.SetRateModel(cfg.Model.RateModel())
	k.SetTracer(tracer)
	cfg.Faults.InjectDegradations(k)
	if cfg.Ckpt == nil && cfg.Faults.FailStops() {
		// Abort policy: fail-stops play out in the kernel and kill ranks.
		// Their index clauses address the deployment's process slots; folded
		// deployments may name a host several times (killing it once is
		// idempotent). Under Ckpt the fail-stop clauses are consumed
		// analytically after the fault-free run (see result).
		names := make([]string, n)
		for i, pd := range depl.Processes {
			names[i] = pd.Host
		}
		if err := cfg.Faults.InjectFailStops(k, names); err != nil {
			return nil, err
		}
	}
	return &run{
		cfg:         cfg,
		k:           k,
		depl:        depl,
		hosts:       hosts,
		sources:     sources,
		world:       &world{k: k, n: n},
		ranks:       make([]rank, n),
		errs:        make([]error, n),
		rankActions: make([]int64, n),
	}, nil
}

// actions totals the per-slot action counters; call only after k.Run.
func (r *run) actions() int64 {
	var sum int64
	for _, n := range r.rankActions {
		sum += n
	}
	return sum
}

// rankErr returns the first error a rank recorded; call only after k.Run.
func (r *run) rankErr() error {
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// result assembles the outcome of a finished run. Under a checkpoint
// protocol the simulated makespan is the fault-free one, and the protocol's
// overhead and the rewind waste of the spec's fail-stops apply analytically.
func (r *run) result(makespan float64, actions int64, wall time.Duration) (*Result, error) {
	res := &Result{SimulatedTime: makespan, Actions: actions, WallTime: wall}
	if r.cfg.Ckpt != nil {
		ra, err := r.cfg.Ckpt.Apply(makespan, r.cfg.Faults)
		if err != nil {
			return nil, err
		}
		res.Resilience = ra
		res.SimulatedTime = ra.Effective
	}
	return res, nil
}

// Run replays one Source per rank on the platform: the engine of the whole
// framework. The deployment's i-th process entry maps rank i onto its host.
// The build's kernel is consumed by the run.
//
// Run is safe to call concurrently from multiple goroutines as long as each
// call gets its own Build (the kernel is mutated), its own Sources (cursors
// advance) and its own TimedTracer; Config values such as the Registry and
// the Model are only read.
func Run(b *platform.Build, depl *platform.Deployment, cfg Config, sources []Source) (*Result, error) {
	r, err := newRun(b, depl, cfg, sources, cfg.TimedTracer)
	if err != nil {
		return nil, err
	}
	for slot := range r.hosts {
		r.spawnRank(slot)
	}

	start := time.Now()
	makespan, runErr := r.k.Run()
	wall := time.Since(start)
	if err := r.rankErr(); err != nil {
		return nil, err
	}
	var lost []RankFailure
	for slot := range r.ranks {
		fe := r.ranks[slot].p.Sim.Killed()
		if fe == nil {
			continue
		}
		lost = append(lost, RankFailure{Rank: slot, Host: depl.Processes[slot].Host,
			Actions: r.rankActions[slot], At: fe.Time, Cause: fe.Error()})
	}
	if len(lost) > 0 {
		// Survivors blocked on a rendezvous with a dead rank deadlock when
		// the queue drains; that is the expected shape of an aborted run,
		// not a stall.
		if _, deadlock := runErr.(*simx.DeadlockError); runErr != nil && !deadlock {
			return nil, fmt.Errorf("replay: simulation stalled: %w", runErr)
		}
		return nil, &FailedRanksError{Time: makespan, Ranks: lost}
	}
	if runErr != nil {
		return nil, fmt.Errorf("replay: simulation stalled: %w", runErr)
	}
	return r.result(makespan, r.actions(), wall)
}

// spawnRank creates the kernel process replaying deployment slot's source
// and returns its rank, which replays the whole source unless the caller
// bounds it before the kernel runs. With built-in actions only the rank is
// a step process; with a registered handler, whose blocking calls need a
// stack, a coroutine drives the same machine.
func (r *run) spawnRank(slot int) *rank {
	rk := &r.ranks[slot]
	rk.p = Proc{Rank: slot, N: r.world.n, cfg: &r.cfg, world: r.world}
	rk.r, rk.src, rk.cut = r, r.sources[slot], -1
	name, host := r.depl.Processes[slot].Function, r.hosts[slot]
	if r.cfg.Registry.stackless() {
		rk.p.Sim = r.k.SpawnFunc(name, host, func(*simx.Proc) { rk.step() })
	} else {
		rk.p.Sim = r.k.Spawn(name, host, func(sp *simx.Proc) {
			for rk.step() {
				sp.Suspend()
			}
		})
	}
	return rk
}

// step advances the rank until it parks (true) or ends (false): it
// finishes the action in flight, then replays actions from the source until
// one parks, the source ends, an action fails or the cut is reached.
func (rk *rank) step() bool {
	p, r := &rk.p, rk.r
	switch p.cont {
	case contNone:
		// Between actions: nothing to finish.
	case contPark:
		p.cont = contNone
		p.Sim.ParkSleepUntil(rk.park)
		return true
	default:
		if p.resume() {
			return true
		}
		r.rankActions[p.Rank]++
	}
	reg := r.cfg.Registry
	for r.rankActions[p.Rank] != rk.cut {
		a, ok, err := rk.src.Next()
		if err != nil {
			r.errs[p.Rank] = fmt.Errorf("replay: p%d trace: %w", p.Rank, err)
			return false
		}
		if !ok {
			return false
		}
		if a.Proc != p.Rank {
			r.errs[p.Rank] = fmt.Errorf("replay: p%d trace contains action of p%d", p.Rank, a.Proc)
			return false
		}
		h, err := reg.Lookup(a.Type)
		parked := false
		if err == nil {
			if reg.registered[a.Type] {
				err = h(p, a)
			} else {
				parked, err = p.begin(a.Type, a)
			}
		}
		if err != nil {
			r.errs[p.Rank] = err
			return false
		}
		if parked {
			return true
		}
		r.rankActions[p.Rank]++
	}
	// The donor's rank reached its divergence point: record when and in
	// which order it parked. The resumed members sleep to exactly here, and
	// same-instant resumptions wake in park order, preserving the
	// interleaving of a from-scratch run.
	r.prefix.park[p.Rank] = p.Sim.Now()
	r.prefix.order = append(r.prefix.order, p.Rank)
	return false
}

// RunActions replays in-memory per-rank action lists.
func RunActions(b *platform.Build, depl *platform.Deployment, cfg Config, perRank [][]trace.Action) (*Result, error) {
	sources := make([]Source, len(perRank))
	for i, acts := range perRank {
		sources[i] = SliceSource(acts)
	}
	return Run(b, depl, cfg, sources)
}

// RunFiles replays the per-process trace files named by the deployment's
// process arguments — the configuration of Section 5 where
// MSG_action_trace_run receives no file name and each process entry carries
// its own trace file. Plain-text traces are streamed so traces larger than
// memory (the class D scale of Section 6.5) replay in constant space, binary
// traces are decoded in place from a memory map, and gzip-compressed traces
// are held as binary images (see openSource).
func RunFiles(b *platform.Build, depl *platform.Deployment, cfg Config) (*Result, error) {
	sources := make([]Source, len(depl.Processes))
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i, pd := range depl.Processes {
		args := pd.Args()
		if len(args) == 0 {
			return nil, fmt.Errorf("replay: process %d (%s) has no trace file argument", i, pd.Function)
		}
		path := args[len(args)-1]
		src, closer, err := openSource(path)
		if err != nil {
			return nil, err
		}
		if closer != nil {
			closers = append(closers, closer)
		}
		sources[i] = src
	}
	return Run(b, depl, cfg, sources)
}

// openSource returns a streaming source for plain-text traces, a mapped
// in-place decoder for binary traces, and for compressed ones a decoder
// over the binary image trace.ReadImage encodes them into (a few bytes per
// action, where decoded actions take 48).
func openSource(path string) (Source, io.Closer, error) {
	if strings.HasSuffix(path, ".gz") {
		img, err := trace.ReadImage(path)
		if err != nil {
			return nil, nil, err
		}
		cur, err := trace.NewBinaryCursor(img)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		return cur, nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	// Binary traces are detected by magic and memory-mapped: the cursor
	// decodes records straight out of the page cache, so replay startup is
	// I/O-bound only (trace.OpenMapped falls back to an in-memory read on
	// platforms without mmap).
	head := make([]byte, 4)
	if n, _ := f.ReadAt(head, 0); n == 4 && string(head) == "TITB" {
		f.Close()
		m, err := trace.OpenMapped(path)
		if err != nil {
			return nil, nil, err
		}
		cur, err := m.Cursor()
		if err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		return cur, m, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return ScannerSource(trace.NewScanner(f)), f, nil
}
