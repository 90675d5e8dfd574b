package replay

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestSinkRecordsEvents checks the columnar sink's basics: interning,
// dual-endpoint comm rows, Reset keeping the rank table and zeroing the
// per-process totals.
func TestSinkRecordsEvents(t *testing.T) {
	s := NewMetricsSink()
	s.Compute("p0", "h0", 1e6, 0, 1)
	s.Comm("p0", "p1", 4096, 1, 1.5)
	if s.Len() != 2 || s.NumRanks() != 2 {
		t.Fatalf("len=%d ranks=%d", s.Len(), s.NumRanks())
	}
	kind, rank, peer, start, end, vol := s.Event(0)
	if kind != EventCompute || rank != 0 || peer != -1 || start != 0 || end != 1 || vol != 1e6 {
		t.Fatalf("compute row: kind=%d rank=%d peer=%d [%g,%g] vol=%g", kind, rank, peer, start, end, vol)
	}
	kind, rank, peer, start, end, vol = s.Event(1)
	if kind != EventComm || rank != 0 || peer != 1 || start != 1 || end != 1.5 || vol != 4096 {
		t.Fatalf("comm row: kind=%d rank=%d peer=%d [%g,%g] vol=%g", kind, rank, peer, start, end, vol)
	}
	if s.RankName(0) != "p0" || s.RankName(1) != "p1" {
		t.Fatalf("rank names: %q %q", s.RankName(0), s.RankName(1))
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset left %d events", s.Len())
	}
	if s.NumRanks() != 2 {
		t.Fatalf("Reset dropped the rank table: %d ranks", s.NumRanks())
	}
	if procs := s.Processes(); len(procs) != 0 {
		t.Fatalf("Reset kept per-process totals: %+v", procs[0])
	}
}

// TestSinkMatchesProfile pins, on real NPB LU and CG traces, that the
// columnar sink's event log folds to per-rank totals bit-equal to the
// totals-only profile's and to the sink's own: all three accumulate the
// same event stream in the same order, so every float must match exactly,
// not approximately.
func TestSinkMatchesProfile(t *testing.T) {
	for _, fixture := range []struct {
		name  string
		procs int
	}{{"LU", 8}, {"CG", 8}} {
		t.Run(fixture.name, func(t *testing.T) {
			perRank := npbTraces(t, fixture.name, fixture.procs)
			b, d := paperSetup(t, fixture.procs)
			prof := NewProfile()
			sink := NewMetricsSink()
			if _, err := RunActions(b, d, Config{TimedTracer: Tee{prof, sink}}, perRank); err != nil {
				t.Fatal(err)
			}

			// Accumulate the sink's columns per rank, in event order — the
			// same order the running totals saw the callbacks.
			type tot struct{ compute, send, recv, flops, sent, rcvd float64 }
			tots := make(map[string]*tot)
			get := func(name string) *tot {
				tt := tots[name]
				if tt == nil {
					tt = &tot{}
					tots[name] = tt
				}
				return tt
			}
			for i := 0; i < sink.Len(); i++ {
				kind, rank, peer, start, end, vol := sink.Event(i)
				if kind == EventCompute {
					tt := get(sink.RankName(rank))
					tt.compute += end - start
					tt.flops += vol
				} else {
					src := get(sink.RankName(rank))
					src.send += end - start
					src.sent += vol
					dst := get(sink.RankName(peer))
					dst.recv += end - start
					dst.rcvd += vol
				}
			}

			for _, view := range []struct {
				name  string
				procs []*ProcProfile
			}{{"profile", prof.Processes()}, {"sink", sink.Processes()}} {
				procs := view.procs
				if len(procs) != fixture.procs || len(tots) != fixture.procs {
					t.Fatalf("rank counts: %s %d, sink log %d", view.name, len(procs), len(tots))
				}
				for _, pp := range procs {
					tt := tots[pp.Name]
					if tt == nil {
						t.Fatalf("%s: missing from sink log", pp.Name)
					}
					if tt.compute != pp.ComputeTime || tt.flops != pp.Flops {
						t.Errorf("%s %s: compute %v/%v flops %v/%v (log/totals)",
							view.name, pp.Name, tt.compute, pp.ComputeTime, tt.flops, pp.Flops)
					}
					if tt.send != pp.SendTime || tt.sent != pp.SentBytes {
						t.Errorf("%s %s: send %v/%v bytes %v/%v",
							view.name, pp.Name, tt.send, pp.SendTime, tt.sent, pp.SentBytes)
					}
					if tt.recv != pp.RecvTime || tt.rcvd != pp.RecvBytes {
						t.Errorf("%s %s: recv %v/%v bytes %v/%v",
							view.name, pp.Name, tt.recv, pp.RecvTime, tt.rcvd, pp.RecvBytes)
					}
				}
			}
		})
	}
}

// TestTimedTraceRoundTrip writes events through the TimedTraceWriter and
// reads them back into a fresh sink: the parsed event stream must carry
// the same processes, kinds and volumes the replay produced.
func TestTimedTraceRoundTrip(t *testing.T) {
	b, d := paperSetup(t, 4)
	direct := NewMetricsSink()
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	if _, err := RunActions(b, d, Config{TimedTracer: Tee{direct, tw}}, perRankActions(t, figure1Trace, 4)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed := NewMetricsSink()
	n, err := ReadTimedTrace(bytes.NewReader(buf.Bytes()), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if n != direct.Len() {
		t.Fatalf("read %d records, replay produced %d", n, direct.Len())
	}
	// The writer orders lines by completion; both sinks saw the same
	// callbacks, so rows must agree one-for-one.
	for i := 0; i < direct.Len(); i++ {
		dk, dr, dp, _, _, dv := direct.Event(i)
		pk, pr, pp, _, _, pv := parsed.Event(i)
		if dk != pk || dv != pv {
			t.Fatalf("row %d: kind/vol %d/%g parsed as %d/%g", i, dk, dv, pk, pv)
		}
		if direct.RankName(dr) != parsed.RankName(pr) {
			t.Fatalf("row %d: rank %q parsed as %q", i, direct.RankName(dr), parsed.RankName(pr))
		}
		if dk == EventComm && direct.RankName(dp) != parsed.RankName(pp) {
			t.Fatalf("row %d: peer %q parsed as %q", i, direct.RankName(dp), parsed.RankName(pp))
		}
	}
}

// TestReadTimedTraceRejectsGarbage checks the parser's line-numbered
// errors on malformed records.
func TestReadTimedTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1.5 p0",                                // short record
		"x p0 compute 1e6 start=0 host=h",       // bad end time
		"1.5 p0 compute 1e6 start=0",            // missing host
		"1.5 p0 compute 1e6 begin=0 host=h",     // wrong field tag
		"1.5 p0 send p1 1e6",                    // short send
		"1.5 p0 recv p1 1e6 start=0",            // unknown kind
		"1.5 p0 compute NaNx start=0 host=h",    // bad flops
		"1.5 p0 send p1 4096 start=zero",        // bad start
		"1.5 p0 compute 1e6 start=0 host=h x=1", // trailing junk
	} {
		s := NewMetricsSink()
		if _, err := ReadTimedTrace(strings.NewReader(bad+"\n"), s); err == nil {
			t.Errorf("accepted %q", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%q: error lacks line number: %v", bad, err)
		}
	}
	// Blank lines are skipped, not counted.
	s := NewMetricsSink()
	n, err := ReadTimedTrace(strings.NewReader("\n\n1 p0 compute 1e6 start=0 host=h\n\n"), s)
	if err != nil || n != 1 {
		t.Fatalf("blank-line handling: n=%d err=%v", n, err)
	}
}

// failAfterWriter fails every write after the first n bytes have landed —
// a short write, as a full disk produces.
type failAfterWriter struct {
	n       int
	written int
}

var errDiskFull = errors.New("no space left on device")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		room := w.n - w.written
		if room < 0 {
			room = 0
		}
		w.written += room
		return room, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestTimedTraceWriterStickyError pins the sticky-error contract: the
// first failed record poisons the writer, later records are dropped
// instead of written after a hole, Lines counts only successful records,
// and Flush reports the first lifetime error even if the final flush
// itself succeeds.
func TestTimedTraceWriterStickyError(t *testing.T) {
	// A tiny bufio buffer would hide the failure until Flush; the writer
	// uses a 64 KiB buffer, so push enough records to overflow it.
	tw := NewTimedTraceWriter(&failAfterWriter{n: 100})
	for i := 0; i < 4096; i++ {
		tw.Compute("p0", "h0", 1e6, float64(i), float64(i)+0.5)
	}
	if err := tw.Err(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Err() = %v, want sticky %v", err, errDiskFull)
	}
	lines := tw.Lines()
	if lines <= 0 || lines >= 4096 {
		t.Fatalf("Lines() = %d, want a partial count", lines)
	}
	// Records after the failure must be dropped, not resumed.
	tw.Comm("p0", "p1", 1, 0, 1)
	if tw.Lines() != lines {
		t.Fatalf("record appended after sticky error: %d -> %d", lines, tw.Lines())
	}
	if err := tw.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush() = %v, want the first lifetime error", err)
	}
}

// TestTimedTraceWriterFlushOnlyError covers the complementary case: every
// record fits the bufio buffer, so the failure only happens at Flush — it
// must still be reported, and stick.
func TestTimedTraceWriterFlushOnlyError(t *testing.T) {
	tw := NewTimedTraceWriter(&failAfterWriter{n: 10})
	tw.Compute("p0", "h0", 1e6, 0, 0.5)
	if err := tw.Err(); err != nil {
		t.Fatalf("premature error: %v", err)
	}
	if err := tw.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush() = %v, want %v", err, errDiskFull)
	}
	if err := tw.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("second Flush() = %v, want the sticky error", err)
	}
}
