package replay

import (
	"fmt"
	"io"
	"sort"

	"tireplay/internal/simx"
)

// ProcProfile is the accumulated activity of one process: a row of the
// per-process breakdown of the simulated execution — time spent computing
// vs communicating, volumes moved — that a MetricsSink folds from the
// replay's timed events. It realises the third output sketched in Figure 4
// of the paper ("derive a profile of the application from this timed
// trace"), which the authors left to external tools like TAU and Scalasca.
type ProcProfile struct {
	Name        string
	ComputeTime float64
	Flops       float64
	Computes    int64
	SendTime    float64 // time of transfers this process sent
	SentBytes   float64
	Sends       int64
	RecvTime    float64 // time of transfers this process received
	RecvBytes   float64
	Recvs       int64
}

// Busy is the total time the process was occupied by traced activity.
func (pp *ProcProfile) Busy() float64 {
	return pp.ComputeTime + pp.SendTime + pp.RecvTime
}

// NewProfile returns a sink that keeps only the per-process totals
// (Processes, Render) and records no event rows, so profiling a streamed
// replay stays O(ranks) however long the trace.
func NewProfile() *MetricsSink {
	s := NewMetricsSink()
	s.totalsOnly = true
	return s
}

// Processes returns the per-process totals sorted by name, one row per
// process with at least one recorded activity: names interned through
// RankID but idle throughout get none.
func (s *MetricsSink) Processes() []*ProcProfile {
	out := make([]*ProcProfile, 0, len(s.procs))
	for _, pp := range s.procs {
		if pp.Computes+pp.Sends+pp.Recvs > 0 {
			out = append(out, &pp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// renderEpsilon bounds the idle-percentage clamp: busy time within this
// relative distance of the makespan is rounding noise and clamps silently;
// anything beyond it is a genuine accounting violation and is surfaced.
const renderEpsilon = 1e-9

// Render prints the profile table and returns the accounting warnings.
// makespan (the replay's simulated time) provides the idle-time column; a
// non-positive or NaN makespan — an empty trace simulates in zero time —
// marks the column "-" instead of dividing by it. Accumulated rounding may
// push the percentage a hair outside [0, 100] and is clamped silently, but
// a process whose busy time genuinely exceeds the makespan (beyond a 1e-9
// relative epsilon — the symptom of double-counted overlapping activity,
// e.g. transfers progressing under a compute burst) keeps the clamped cell,
// gains a trailing "!" marker, and contributes a returned warning rather
// than being silently masked.
func (s *MetricsSink) Render(w io.Writer, makespan float64) []string {
	var warnings []string
	fmt.Fprintf(w, "%-8s | %12s %10s | %12s %12s | %12s %12s | %10s\n",
		"process", "compute", "flops", "comm (sent)", "bytes", "comm (recv)", "bytes", "idle")
	for _, pp := range s.Processes() {
		idle := "-"
		mark := ""
		if makespan > 0 { // false for NaN too
			busy := pp.Busy()
			pct := 100 * (makespan - busy) / makespan
			if busy > makespan*(1+renderEpsilon) {
				mark = " !"
				warnings = append(warnings, fmt.Sprintf(
					"%s: busy time %.9gs exceeds makespan %.9gs (%.3g%% over): overlapping activity was double-counted",
					pp.Name, busy, makespan, 100*(busy-makespan)/makespan))
			}
			if pct < 0 {
				pct = 0
			} else if pct > 100 {
				pct = 100
			}
			idle = fmt.Sprintf("%9.1f%%", pct)
		}
		fmt.Fprintf(w, "%-8s | %11.3fs %10.3g | %11.3fs %12.3g | %11.3fs %12.3g | %10s%s\n",
			pp.Name, pp.ComputeTime, pp.Flops, pp.SendTime, pp.SentBytes,
			pp.RecvTime, pp.RecvBytes, idle, mark)
	}
	return warnings
}

// Tee fans a timed trace out to several tracers (e.g. a MetricsSink and a
// TimedTraceWriter at once).
type Tee []simx.Tracer

// Compute implements simx.Tracer.
func (t Tee) Compute(proc, host string, flops, start, end float64) {
	for _, tr := range t {
		tr.Compute(proc, host, flops, start, end)
	}
}

// Comm implements simx.Tracer.
func (t Tee) Comm(src, dst string, bytes, start, end float64) {
	for _, tr := range t {
		tr.Comm(src, dst, bytes, start, end)
	}
}
