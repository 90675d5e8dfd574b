// Package metrics is the time-resolved analysis layer over timed traces:
// it consumes the columnar event sink a replay records
// (replay.MetricsSink) and computes POP-style standard efficiencies — load
// balance, communication efficiency and its serialization/transfer split —
// for the whole run, per fixed time window, and per detected application
// phase. This is the output the trace-based time-resolved analysis
// literature (the HLRS standard-metrics paper, Pipit) argues a replay
// should produce: not just a makespan, but *why* the time went where it
// went, resolved over the run.
//
// Definitions, per analysis interval of length T over n ranks, with
// useful[r] the time rank r spent computing and transfer[r] the time its
// point-to-point transfers were in flight (a transfer occupies both
// endpoints — the dual attribution the sink's per-process profile shares):
//
//	ParallelEff = avg(useful) / T          overall core utilisation
//	LoadBalance = avg(useful) / max(useful)
//	CommEff     = max(useful) / T          so ParallelEff = LB x CommEff
//	SerEff      = max(useful + transfer) / T   loss waiting (serialization)
//	TransferEff = CommEff / SerEff             loss moving bytes
//
// SerEff and TransferEff are the measured-data analogue of POP's
// ideal-network split: time not spent computing divides into time the
// critical rank's transfers were actually progressing (transfer loss) and
// time it was blocked with nothing in flight (serialization loss).
// Efficiencies are clipped to [0, 1]; a clip beyond rounding means
// overlapping activity (e.g. transfers progressing under compute) pushed
// occupancy past wall time, which MetricsSink.Render surfaces separately.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"tireplay/internal/replay"
)

// Options parameterises an analysis. Ranks that recorded no event get a
// (fully idle) row when their names are pre-interned in a sink with
// MetricsSink.RankID.
type Options struct {
	// Windows is the number of equal time windows the run is cut into;
	// <= 0 means 10. A zero-makespan run yields no windows regardless.
	Windows int
	// Makespan overrides the analysis horizon; <= 0 derives it from the
	// latest event end.
	Makespan float64
}

// MaxWindows caps the window count callers may request: the analysis
// rescans every event once per window, so its cost grows with the count.
const MaxWindows = 1000

// commThreshold is the transfer share of busy time at which a window
// classifies comm-dominant for phase detection.
const commThreshold = 0.5

// CheckWindows validates a requested window count where it enters the
// program: 0 selects the default, 1..MaxWindows are accepted.
func CheckWindows(n int) error {
	if n < 0 || n > MaxWindows {
		return fmt.Errorf("metrics: window count %d out of range (0 for the default, or 1..%d)", n, MaxWindows)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Windows <= 0 {
		o.Windows = 10
	}
	return o
}

// Breakdown is one rank's time split over an interval.
type Breakdown struct {
	Rank     string  `json:"rank"`
	Useful   float64 `json:"useful_s"`
	Transfer float64 `json:"transfer_s"`
	Wait     float64 `json:"wait_s"`
}

// Efficiency is the POP metric set of one interval.
type Efficiency struct {
	ParallelEff float64 `json:"parallel_eff"`
	LoadBalance float64 `json:"load_balance"`
	CommEff     float64 `json:"comm_eff"`
	SerEff      float64 `json:"ser_eff"`
	TransferEff float64 `json:"transfer_eff"`
}

// Window is one fixed time slice of the run.
type Window struct {
	Index int     `json:"index"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// CommFraction is the transfer share of the window's busy time.
	CommFraction float64    `json:"comm_fraction"`
	Eff          Efficiency `json:"eff"`
}

// Phase is a maximal run of adjacent windows with one dominant activity.
type Phase struct {
	// Kind is "compute", "comm" or "idle" (no busy time at all).
	Kind    string     `json:"kind"`
	Start   float64    `json:"start_s"`
	End     float64    `json:"end_s"`
	Windows int        `json:"windows"`
	Eff     Efficiency `json:"eff"`
}

// Report is the full time-resolved analysis of one run.
type Report struct {
	Makespan float64     `json:"makespan_s"`
	Events   int         `json:"events"`
	Ranks    []Breakdown `json:"ranks"`
	Summary  Efficiency  `json:"summary"`
	Windows  []Window    `json:"windows,omitempty"`
	Phases   []Phase     `json:"phases,omitempty"`
}

// analysis is the resolved input of one Analyze call: the merged rank
// table and the event sinks.
type analysis struct {
	sinks []*replay.MetricsSink
	// id maps a process name to its merged dense index; names holds the
	// merged table in deterministic rank order.
	id    map[string]int
	names []string
	// sinkIDs[k] maps sink k's local rank IDs to merged indices.
	sinkIDs [][]int
}

// Analyze computes the time-resolved report of one or more event sinks
// (several sinks arise when tistat merges several timed-trace files; they
// are merged by process name). The result is a
// pure function of the sink contents and the options — analysing the same
// replay at any sweep worker count yields byte-identical JSON.
func Analyze(sinks []*replay.MetricsSink, opt Options) *Report {
	opt = opt.withDefaults()
	a := &analysis{id: make(map[string]int)}
	events := 0
	for _, s := range sinks {
		if s == nil {
			continue
		}
		a.sinks = append(a.sinks, s)
		ids := make([]int, s.NumRanks())
		for i := range ids {
			ids[i] = a.intern(s.RankName(int32(i)))
		}
		a.sinkIDs = append(a.sinkIDs, ids)
		events += s.Len()
	}
	a.sortRanks()

	makespan := opt.Makespan
	if makespan <= 0 {
		for _, s := range a.sinks {
			for i := 0; i < s.Len(); i++ {
				if _, _, _, _, end, _ := s.Event(i); end > makespan {
					makespan = end
				}
			}
		}
	}

	rep := &Report{Makespan: makespan, Events: events}
	n := len(a.names)
	if n == 0 {
		return rep
	}
	useful := make([]float64, n)
	transfer := make([]float64, n)

	// Whole-run totals and summary.
	a.interval(0, makespan, useful, transfer)
	rep.Ranks = make([]Breakdown, n)
	for r, name := range a.names {
		rep.Ranks[r] = breakdown(name, useful[r], transfer[r], makespan)
	}
	rep.Summary = efficiency(useful, transfer, makespan)

	if makespan <= 0 {
		// A zero-makespan run (empty or instantaneous trace) has no time
		// axis to resolve: totals only, no windows, no phases.
		return rep
	}

	// Fixed windows. Events straddling a boundary are split pro rata
	// (uniform progress over the activity), so window columns sum exactly
	// to the whole-run totals.
	width := makespan / float64(opt.Windows)
	rep.Windows = make([]Window, opt.Windows)
	kinds := make([]string, opt.Windows)
	for w := 0; w < opt.Windows; w++ {
		t0 := float64(w) * width
		t1 := t0 + width
		if w == opt.Windows-1 {
			t1 = makespan // absorb rounding: the last window closes the run
		}
		a.interval(t0, t1, useful, transfer)
		win := Window{Index: w, Start: t0, End: t1,
			Eff: efficiency(useful, transfer, t1-t0)}
		sumU, sumT := sum(useful), sum(transfer)
		switch {
		case sumU+sumT <= 0:
			kinds[w] = "idle"
		default:
			win.CommFraction = sumT / (sumU + sumT)
			if win.CommFraction >= commThreshold {
				kinds[w] = "comm"
			} else {
				kinds[w] = "compute"
			}
		}
		rep.Windows[w] = win
	}

	// Phases: maximal runs of same-kind windows, re-analysed over their
	// exact extent (not a sum of window numbers, so a phase's efficiency
	// is what a window of that span would have reported).
	for w := 0; w < opt.Windows; {
		e := w + 1
		for e < opt.Windows && kinds[e] == kinds[w] {
			e++
		}
		t0, t1 := rep.Windows[w].Start, rep.Windows[e-1].End
		a.interval(t0, t1, useful, transfer)
		rep.Phases = append(rep.Phases, Phase{Kind: kinds[w], Start: t0, End: t1,
			Windows: e - w, Eff: efficiency(useful, transfer, t1-t0)})
		w = e
	}
	return rep
}

// AnalyzeSink is Analyze for the common single-kernel case.
func AnalyzeSink(s *replay.MetricsSink, opt Options) *Report {
	return Analyze([]*replay.MetricsSink{s}, opt)
}

func (a *analysis) intern(name string) int {
	if i, ok := a.id[name]; ok {
		return i
	}
	i := len(a.names)
	a.id[name] = i
	a.names = append(a.names, name)
	return i
}

// sortRanks orders the merged rank table naturally (p2 before p10) and
// rewrites the sink ID maps to match, so reports list ranks in rank order
// whatever order events arrived in.
func (a *analysis) sortRanks() {
	perm := make([]int, len(a.names))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return rankLess(a.names[perm[i]], a.names[perm[j]]) })
	pos := make([]int, len(perm)) // old index -> new index
	sorted := make([]string, len(perm))
	for newI, oldI := range perm {
		pos[oldI] = newI
		sorted[newI] = a.names[oldI]
	}
	a.names = sorted
	for name, oldI := range a.id {
		a.id[name] = pos[oldI]
	}
	for _, ids := range a.sinkIDs {
		for k, oldI := range ids {
			ids[k] = pos[oldI]
		}
	}
}

// rankLess compares process names naturally: a shared alphabetic prefix
// followed by digits compares numerically ("p2" < "p10"), anything else
// lexicographically.
func rankLess(x, y string) bool {
	px, nx, okx := splitRank(x)
	py, ny, oky := splitRank(y)
	if okx && oky && px == py {
		if nx != ny {
			return nx < ny
		}
		return x < y
	}
	return x < y
}

// splitRank splits a trailing decimal suffix off a name.
func splitRank(s string) (prefix string, n int64, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	var v int64
	for _, c := range s[i:] {
		v = v*10 + int64(c-'0')
		if v < 0 { // overflow: fall back to lexicographic
			return s, 0, false
		}
	}
	return s[:i], v, true
}

// interval accumulates each rank's useful and transfer time over [t0, t1),
// clipping straddling events pro rata. A transfer charges both endpoints
// for its clipped duration.
func (a *analysis) interval(t0, t1 float64, useful, transfer []float64) {
	for i := range useful {
		useful[i] = 0
		transfer[i] = 0
	}
	for k, s := range a.sinks {
		ids := a.sinkIDs[k]
		for i := 0; i < s.Len(); i++ {
			kind, rank, peer, start, end, _ := s.Event(i)
			lo, hi := start, end
			if lo < t0 {
				lo = t0
			}
			if hi > t1 {
				hi = t1
			}
			ov := hi - lo
			if ov <= 0 {
				continue
			}
			if kind == replay.EventCompute {
				useful[ids[rank]] += ov
			} else {
				transfer[ids[rank]] += ov
				transfer[ids[peer]] += ov
			}
		}
	}
}

// efficiency derives the POP metric set of one interval.
func efficiency(useful, transfer []float64, T float64) Efficiency {
	if T <= 0 || len(useful) == 0 {
		return Efficiency{}
	}
	var sumU, maxU, maxBusy float64
	for r, u := range useful {
		sumU += u
		if u > maxU {
			maxU = u
		}
		if b := u + transfer[r]; b > maxBusy {
			maxBusy = b
		}
	}
	avgU := sumU / float64(len(useful))
	e := Efficiency{
		ParallelEff: clip01(avgU / T),
		LoadBalance: 1,
		CommEff:     clip01(maxU / T),
		SerEff:      clip01(maxBusy / T),
		TransferEff: 1,
	}
	if maxU > 0 {
		e.LoadBalance = clip01(avgU / maxU)
	}
	if e.SerEff > 0 {
		e.TransferEff = clip01(e.CommEff / e.SerEff)
	}
	return e
}

func breakdown(name string, useful, transfer, T float64) Breakdown {
	wait := T - useful - transfer
	if wait < 0 {
		wait = 0 // overlapping activity; Render's "!" path diagnoses it
	}
	return Breakdown{Rank: name, Useful: useful, Transfer: transfer, Wait: wait}
}

func clip01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// String renders the metric set compactly ("PE=0.82 LB=0.91 CommE=0.90
// SerE=0.95 TrfE=0.95"); the sweep table uses the individual fields.
func (e Efficiency) String() string {
	return fmt.Sprintf("PE=%.2f LB=%.2f CommE=%.2f SerE=%.2f TrfE=%.2f",
		e.ParallelEff, e.LoadBalance, e.CommEff, e.SerEff, e.TransferEff)
}
