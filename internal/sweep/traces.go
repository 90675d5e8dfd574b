package sweep

import (
	"fmt"
	"strings"

	"tireplay/internal/replay"
	"tireplay/internal/trace"
)

// TraceSet is the one shared input of a sweep: the per-rank time-independent
// traces, parsed (or memory-mapped) exactly once and handed to every
// scenario read-only. Per-scenario cursors are created by source(), so
// concurrent workers never share a decoder position; binary traces stay
// mapped and are decoded in place by each scenario's own cursor, directly
// out of the shared page cache.
type TraceSet struct {
	perRank [][]trace.Action     // slice-backed ranks (nil entry: mapped)
	mapped  []*trace.MappedTrace // mapped binary ranks (nil entry: slice)
}

// TracesFromActions wraps already-parsed per-rank action lists. The slices
// are retained and must not be mutated while a sweep runs.
func TracesFromActions(perRank [][]trace.Action) *TraceSet {
	return &TraceSet{perRank: perRank, mapped: make([]*trace.MappedTrace, len(perRank))}
}

// LoadDir loads the n per-rank trace files of dir, resolving each rank's
// file among the three encodings tau2ti emits (SG_process<r>.trace, .trace.gz,
// .tib). Text and gzip traces are parsed into memory once; binary traces are
// memory-mapped and never copied. Close the set when the sweep is done.
func LoadDir(dir string, n int) (*TraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sweep: need a positive rank count")
	}
	ts := &TraceSet{
		perRank: make([][]trace.Action, n),
		mapped:  make([]*trace.MappedTrace, n),
	}
	for r := 0; r < n; r++ {
		path, err := trace.RankFile(dir, r)
		if err != nil {
			ts.Close()
			return nil, err
		}
		if strings.HasSuffix(path, ".tib") {
			m, err := trace.OpenMapped(path)
			if err != nil {
				ts.Close()
				return nil, err
			}
			if _, err := m.Cursor(); err != nil {
				m.Close()
				ts.Close()
				return nil, fmt.Errorf("sweep: %s: %w", path, err)
			}
			ts.mapped[r] = m
			continue
		}
		acts, err := trace.ReadFile(path)
		if err != nil {
			ts.Close()
			return nil, err
		}
		ts.perRank[r] = acts
	}
	return ts, nil
}

// Ranks returns the number of ranks in the set.
func (t *TraceSet) Ranks() int { return len(t.perRank) }

// Close releases the mapped views. Safe on a partially loaded set.
func (t *TraceSet) Close() error {
	var first error
	for i, m := range t.mapped {
		if m == nil {
			continue
		}
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
		t.mapped[i] = nil
	}
	return first
}

// source returns a fresh Source over rank r's trace for one scenario run.
func (t *TraceSet) source(r int) (replay.Source, error) {
	if m := t.mapped[r]; m != nil {
		cur, err := m.Cursor()
		if err != nil {
			return nil, err
		}
		return cur, nil
	}
	return replay.SliceSource(t.perRank[r]), nil
}
