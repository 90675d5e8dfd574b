package replay

// MetricsSink is the one per-process accounting of a replay's timed events.
// It folds every completed activity into per-rank running totals (the
// profile rows Processes returns) and, unless built by NewProfile, also
// records it as a columnar, append-only row — kind, rank, peer, start, end,
// volume — for the time-resolved metrics engine (internal/metrics).
// Process names are interned to dense rank IDs at first sight. Appends are
// allocation-free once the columns have grown to the trace's event count
// and every name has been interned (the same steady-state discipline as
// ParseLineBytes; BenchmarkMetricsSink gates it at 0 allocs/op), and Reset
// keeps both the capacity and the rank table so a sweep can reuse one sink
// per worker across scenarios.
//
// Attribution is dual at the source: a comm event names both endpoints, and
// the transfer is charged to the sender (SendTime) and the receiver
// (RecvTime) alike, so receiver-side communication is not folded into idle
// time. A loopback transfer charges the same process in both roles.
//
// The kernel schedules one process at a time, so the sink needs no lock;
// install it as (part of) the replay's TimedTracer.
type MetricsSink struct {
	kinds  []EventKind
	ranks  []int32 // executing rank (compute) or sender (comm)
	peers  []int32 // receiver rank for comm, -1 for compute
	starts []float64
	ends   []float64
	vols   []float64 // flops for compute, bytes for comm

	ids   map[string]int32 // process name -> dense rank ID
	procs []ProcProfile    // dense rank ID -> name and running totals

	totalsOnly bool // NewProfile: fold the totals, record no event rows
}

// EventKind distinguishes the sink's event rows.
type EventKind uint8

const (
	// EventCompute is a completed compute burst.
	EventCompute EventKind = iota
	// EventComm is a completed point-to-point transfer.
	EventComm
)

// NewMetricsSink returns an empty sink.
func NewMetricsSink() *MetricsSink {
	return &MetricsSink{ids: make(map[string]int32)}
}

// RankID interns a process name, returning its dense rank ID. Pre-intern
// the deployment's process names to give ranks without any event a row in
// the analysis.
func (s *MetricsSink) RankID(name string) int32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.procs))
	s.ids[name] = id
	s.procs = append(s.procs, ProcProfile{Name: name})
	return id
}

// Compute implements simx.Tracer.
func (s *MetricsSink) Compute(proc, host string, flops, start, end float64) {
	rank := s.RankID(proc)
	pp := &s.procs[rank]
	pp.ComputeTime += end - start
	pp.Flops += flops
	pp.Computes++
	if !s.totalsOnly {
		s.append(EventCompute, rank, -1, start, end, flops)
	}
}

// Comm implements simx.Tracer.
func (s *MetricsSink) Comm(src, dst string, bytes, start, end float64) {
	from, to := s.RankID(src), s.RankID(dst)
	ps := &s.procs[from]
	ps.SendTime += end - start
	ps.SentBytes += bytes
	ps.Sends++
	pd := &s.procs[to]
	pd.RecvTime += end - start
	pd.RecvBytes += bytes
	pd.Recvs++
	if !s.totalsOnly {
		s.append(EventComm, from, to, start, end, bytes)
	}
}

func (s *MetricsSink) append(kind EventKind, rank, peer int32, start, end, vol float64) {
	s.kinds = append(s.kinds, kind)
	s.ranks = append(s.ranks, rank)
	s.peers = append(s.peers, peer)
	s.starts = append(s.starts, start)
	s.ends = append(s.ends, end)
	s.vols = append(s.vols, vol)
}

// Len is the number of recorded events.
func (s *MetricsSink) Len() int { return len(s.kinds) }

// NumRanks is the number of interned process names.
func (s *MetricsSink) NumRanks() int { return len(s.procs) }

// RankName resolves a dense rank ID back to its process name.
func (s *MetricsSink) RankName(id int32) string { return s.procs[id].Name }

// Event returns row i of the columns.
func (s *MetricsSink) Event(i int) (kind EventKind, rank, peer int32, start, end, vol float64) {
	return s.kinds[i], s.ranks[i], s.peers[i], s.starts[i], s.ends[i], s.vols[i]
}

// Reset empties the event columns and zeroes the per-rank totals, keeping
// the columns' capacity and the interned rank table, so the next replay
// into this sink allocates nothing.
func (s *MetricsSink) Reset() {
	s.kinds = s.kinds[:0]
	s.ranks = s.ranks[:0]
	s.peers = s.peers[:0]
	s.starts = s.starts[:0]
	s.ends = s.ends[:0]
	s.vols = s.vols[:0]
	for i := range s.procs {
		s.procs[i] = ProcProfile{Name: s.procs[i].Name}
	}
}
