package replay

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tireplay/internal/platform"
)

// Ckpt describes a coordinated checkpoint/restart protocol: every Interval
// seconds of application progress the whole run blocks for Cost seconds to
// write a global checkpoint; a fail-stop failure costs Down seconds of
// downtime plus Restart seconds to reload the last checkpoint, after which
// the run re-executes from that checkpoint's progress point.
//
// Because the replay is deterministic, re-execution from a global
// checkpoint reproduces the original schedule exactly, so the faulted
// makespan has a closed form over the fault-free one: the kernel simulates
// the fault-free run (degradations included) once, and the checkpoint and
// rewind waste is applied analytically (see Resilience). This is the
// classical first-order waste model behind Young's and Daly's optimal
// checkpoint intervals, made exact by determinism.
type Ckpt struct {
	Interval float64 // seconds of progress between checkpoint writes
	Cost     float64 // seconds to write one checkpoint
	Restart  float64 // seconds to reload the last checkpoint
	Down     float64 // seconds of downtime before the restart begins
}

// Validate checks the protocol parameters.
func (c *Ckpt) Validate() error {
	if c == nil {
		return nil
	}
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	if !(c.Interval > 0) || math.IsInf(c.Interval, 0) || math.IsNaN(c.Interval) {
		return fmt.Errorf("replay: checkpoint interval %g, want > 0", c.Interval)
	}
	if bad(c.Cost) || bad(c.Restart) || bad(c.Down) {
		return fmt.Errorf("replay: checkpoint cost/restart/down %g/%g/%g, want finite >= 0",
			c.Cost, c.Restart, c.Down)
	}
	return nil
}

// ParseCkpt parses the command-line form "interval[/cost[/restart[/down]]]"
// (seconds; omitted fields default to 0). "none" or an empty string yields
// a nil protocol.
func ParseCkpt(s string) (*Ckpt, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "none") {
		return nil, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) > 4 {
		return nil, fmt.Errorf("replay: checkpoint spec %q: want interval[/cost[/restart[/down]]]", s)
	}
	vals := [4]float64{}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("replay: checkpoint spec %q: bad number %q", s, p)
		}
		if v == 0 {
			v = 0 // read -0 as 0: String would render its sign
		}
		vals[i] = v
	}
	c := &Ckpt{Interval: vals[0], Cost: vals[1], Restart: vals[2], Down: vals[3]}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// String renders the protocol in the ParseCkpt form.
func (c *Ckpt) String() string {
	if c == nil {
		return "none"
	}
	return fmt.Sprintf("%g/%g/%g/%g", c.Interval, c.Cost, c.Restart, c.Down)
}

// MarshalText renders the protocol for JSON/text encoders.
func (c *Ckpt) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// DalyInterval returns Daly's first-order optimal checkpoint interval
// sqrt(2*cost*mtbf) for a checkpoint cost and a platform mean time between
// failures — the analytic optimum the resilience sweep should reproduce.
func DalyInterval(cost, mtbf float64) float64 {
	return math.Sqrt(2 * cost * mtbf)
}

// Resilience is the waste accounting of a replay under the
// checkpoint/restart policy. All fields are simulated seconds except the
// counters. Two exact identities hold (and are tested):
//
//	Effective = FaultFree + CkptTime + Wasted + Downtime
//	Wasted    = Recomputed + (partial checkpoint writes lost to failures)
type Resilience struct {
	// FaultFree is the makespan of the failure-free run (degradation
	// windows included), straight from the kernel.
	FaultFree float64 `json:"fault_free"`
	// Effective is the makespan with checkpoints and failures applied —
	// the run's SimulatedTime.
	Effective float64 `json:"effective"`
	// CkptTime is the time spent in completed checkpoint writes.
	CkptTime float64 `json:"ckpt_time"`
	// Wasted is the time discarded by failures: progress since the last
	// durable checkpoint, plus any partially-written checkpoint.
	Wasted float64 `json:"wasted"`
	// Recomputed is the rolled-back-work portion of Wasted: progress that
	// has to be executed again after a rewind.
	Recomputed float64 `json:"recomputed"`
	// Downtime is the failure handling time: (Down + Restart) per failure.
	Downtime float64 `json:"downtime"`
	// Checkpoints counts completed checkpoint writes.
	Checkpoints int `json:"checkpoints"`
	// Failures counts the failures that struck the run (failures arriving
	// during another failure's recovery window are absorbed by it).
	Failures int `json:"failures"`
}

// Apply walks a fault-free makespan of a ranks-wide run through the
// (non-nil) protocol against the fail-stop clauses of faults, returning the
// waste breakdown a replay with this protocol reports. It validates the
// protocol first, so a caller reusing another run's fault-free makespan
// rejects a bad protocol with the error this protocol's own replay would
// return.
func (c *Ckpt) Apply(faultFree float64, faults *platform.FaultSpec, ranks int) (*Resilience, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return applyCkpt(faultFree, c, faults.Arrivals(ranks))
}

// maxCkptFailures bounds the analytic walker: a failure rate so high that
// the run needs this many rewinds will plainly never finish.
const maxCkptFailures = 1 << 20

// applyCkpt walks the fault-free makespan M through the checkpoint/restart
// waste algebra against the failure-instant stream. Progress p advances
// toward M in wall time; every Interval of progress a checkpoint is
// written; a failure instant striking mid-work or mid-write discards
// everything since the last durable checkpoint and costs Down+Restart
// before re-execution resumes. A failure landing exactly on a boundary
// counts against the following phase.
func applyCkpt(M float64, ck *Ckpt, arr *platform.Arrivals) (*Resilience, error) {
	r := &Resilience{FaultFree: M}
	wall := 0.0 // elapsed wall-clock (simulated) time
	p := 0.0    // application progress achieved
	cp := 0.0   // progress of the last durable checkpoint
	nf := arr.Next()
	fail := func(at float64) {
		r.Failures++
		wall = at + ck.Down + ck.Restart
		r.Downtime += ck.Down + ck.Restart
		p = cp
		for nf = arr.Next(); nf < wall; nf = arr.Next() {
			// Failures during the recovery window are absorbed by it: the
			// run was not progressing, there is nothing more to lose.
		}
	}
	for p < M {
		if r.Failures >= maxCkptFailures {
			return nil, fmt.Errorf("replay: checkpoint/restart does not converge: %d failures before progress %g/%g (interval %g vs failure rate too high)",
				r.Failures, p, M, ck.Interval)
		}
		target := cp + ck.Interval
		if target > M {
			target = M
		}
		need := target - p
		if nf < wall+need {
			// Failure mid-work: progress since the last checkpoint is lost
			// and will be recomputed.
			lost := (p + (nf - wall)) - cp
			r.Wasted += lost
			r.Recomputed += lost
			fail(nf)
			continue
		}
		wall += need
		p = target
		if p >= M {
			break // the application finished; no final checkpoint needed
		}
		if nf < wall+ck.Cost {
			// Failure mid-write: the checkpoint is not durable, so the
			// partial write and all progress since the last durable one
			// are lost.
			r.Wasted += (nf - wall) + (p - cp)
			r.Recomputed += p - cp
			fail(nf)
			continue
		}
		wall += ck.Cost
		r.CkptTime += ck.Cost
		r.Checkpoints++
		cp = p
	}
	r.Effective = wall
	return r, nil
}

// RankFailure records one rank lost to a fail-stop fault under the abort
// recovery policy. The failure names the resource that died — a rank
// aborted because its peer's host failed reports that host, not its own.
type RankFailure struct {
	Rank    int     `json:"rank"`
	Host    string  `json:"host"` // the rank's own host
	Actions int64   `json:"actions"`
	At      float64 `json:"at"`
	Cause   string  `json:"cause"` // the FailedError message
}

// FailedRanksError aborts a faulted replay without a recovery protocol: it
// diagnoses which ranks died (or were cascaded into aborting by a peer's
// death), with the work each had completed. Configure Ckpt to ride through
// failures instead.
type FailedRanksError struct {
	// Time is the simulated time the run ended.
	Time float64
	// Ranks lists the lost ranks in rank order.
	Ranks []RankFailure
}

func (e *FailedRanksError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay: %d rank(s) lost to fail-stop faults by t=%g:", len(e.Ranks), e.Time)
	for i, rf := range e.Ranks {
		if i == 4 {
			fmt.Fprintf(&b, " ... (%d more)", len(e.Ranks)-i)
			break
		}
		fmt.Fprintf(&b, " rank %d on %s after %d actions (%s);", rf.Rank, rf.Host, rf.Actions, rf.Cause)
	}
	return strings.TrimSuffix(b.String(), ";")
}
