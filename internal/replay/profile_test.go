package replay

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestProfileCollectsPerProcess(t *testing.T) {
	b, d := paperSetup(t, 4)
	prof := NewProfile()
	res, err := RunActions(b, d, Config{TimedTracer: prof}, perRankActions(t, figure1Trace, 4))
	if err != nil {
		t.Fatal(err)
	}
	if n := prof.Len(); n != 0 {
		t.Fatalf("profile recorded %d event rows, want totals only", n)
	}
	procs := prof.Processes()
	if len(procs) != 4 {
		t.Fatalf("profiled %d processes", len(procs))
	}
	for _, pp := range procs {
		if pp.Computes != 1 || pp.Flops != 1e6 {
			t.Errorf("%s: computes=%d flops=%g", pp.Name, pp.Computes, pp.Flops)
		}
		if pp.Sends != 1 || pp.SentBytes != 1e6 {
			t.Errorf("%s: sends=%d bytes=%g", pp.Name, pp.Sends, pp.SentBytes)
		}
		if pp.ComputeTime <= 0 || pp.SendTime <= 0 {
			t.Errorf("%s: zero times %+v", pp.Name, pp)
		}
		if pp.ComputeTime+pp.SendTime > res.SimulatedTime {
			t.Errorf("%s: busy time exceeds makespan", pp.Name)
		}
	}
}

func TestProfileRender(t *testing.T) {
	b, d := paperSetup(t, 4)
	prof := NewProfile()
	res, err := RunActions(b, d, Config{TimedTracer: prof}, perRankActions(t, figure1Trace, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prof.Render(&buf, res.SimulatedTime)
	out := buf.String()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "idle") {
		t.Fatalf("render output:\n%s", out)
	}
	if strings.Count(out, "\n") != 5 { // header + 4 processes
		t.Fatalf("unexpected line count:\n%s", out)
	}
}

func TestTeeFansOut(t *testing.T) {
	b, d := paperSetup(t, 4)
	prof := NewProfile()
	var buf bytes.Buffer
	tw := NewTimedTraceWriter(&buf)
	_, err := RunActions(b, d, Config{TimedTracer: Tee{prof, tw}}, perRankActions(t, figure1Trace, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Lines() != 8 {
		t.Fatalf("timed trace lines = %d", tw.Lines())
	}
	if len(prof.Processes()) != 4 {
		t.Fatalf("profile missing processes")
	}
}

func TestProfileRenderZeroMakespan(t *testing.T) {
	// An empty trace replays in zero simulated time; the idle column must
	// degrade to "-" rather than dividing by the zero makespan.
	prof := NewProfile()
	prof.Compute("p0", "h0", 0, 0, 0)
	var buf bytes.Buffer
	prof.Render(&buf, 0)
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("zero makespan rendered a NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("zero makespan should mark the idle column:\n%s", out)
	}
	buf.Reset()
	prof.Render(&buf, math.NaN())
	if out := buf.String(); strings.Contains(out, "NaN") {
		t.Fatalf("NaN makespan leaked into the table:\n%s", out)
	}
}

// TestProfileDualAttribution pins the corrected accounting on
// hand-computed values: one transfer must charge its full duration and
// volume to the sender's Send columns AND the receiver's Recv columns; a
// loopback transfer charges the same process in both roles.
func TestProfileDualAttribution(t *testing.T) {
	prof := NewProfile()
	prof.Comm("p0", "p1", 4096, 1.0, 3.5)
	prof.Comm("p2", "p2", 100, 0, 1) // loopback
	procs := prof.Processes()
	if len(procs) != 3 {
		t.Fatalf("profiled %d processes, want 3", len(procs))
	}
	p0, p1, p2 := procs[0], procs[1], procs[2]
	if p0.SendTime != 2.5 || p0.SentBytes != 4096 || p0.Sends != 1 {
		t.Errorf("sender: %+v", p0)
	}
	if p0.RecvTime != 0 || p0.RecvBytes != 0 || p0.Recvs != 0 {
		t.Errorf("sender gained recv accounting: %+v", p0)
	}
	if p1.RecvTime != 2.5 || p1.RecvBytes != 4096 || p1.Recvs != 1 {
		t.Errorf("receiver: %+v", p1)
	}
	if p1.SendTime != 0 || p1.Busy() != 2.5 {
		t.Errorf("receiver busy = %g, want 2.5: %+v", p1.Busy(), p1)
	}
	if p2.SendTime != 1 || p2.RecvTime != 1 || p2.Busy() != 2 {
		t.Errorf("loopback: %+v", p2)
	}
}

// TestProfileReceiverIdleCorrectedOnLU pins, on a real NPB LU trace, that
// the old sender-only attribution provably overstated receiver idle time:
// every rank both sends and receives in LU's wavefront exchange, so every
// rank must now carry RecvTime > 0, the idle estimate must drop on every
// rank, and the per-transfer books must balance (each transfer appears
// once as a send and once as a receive).
func TestProfileReceiverIdleCorrectedOnLU(t *testing.T) {
	const procs = 8
	perRank := npbTraces(t, "LU", procs)
	b, d := paperSetup(t, procs)
	prof := NewProfile()
	res, err := RunActions(b, d, Config{TimedTracer: prof}, perRank)
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs int64
	var sentBytes, recvBytes, sendTime, recvTime float64
	for _, pp := range prof.Processes() {
		if pp.RecvTime <= 0 || pp.Recvs == 0 {
			t.Errorf("%s: no receiver-side accounting (RecvTime=%g Recvs=%d) — the old bug",
				pp.Name, pp.RecvTime, pp.Recvs)
		}
		oldIdle := res.SimulatedTime - pp.ComputeTime - pp.SendTime // pre-fix estimate
		newIdle := res.SimulatedTime - pp.Busy()
		if !(newIdle < oldIdle) {
			t.Errorf("%s: idle estimate did not drop (old %g, new %g)", pp.Name, oldIdle, newIdle)
		}
		sends += pp.Sends
		recvs += pp.Recvs
		sentBytes += pp.SentBytes
		recvBytes += pp.RecvBytes
		sendTime += pp.SendTime
		recvTime += pp.RecvTime
	}
	if sends != recvs {
		t.Errorf("transfer counts unbalanced: %d sends, %d recvs", sends, recvs)
	}
	// Totals sum the same per-transfer values grouped by different ranks,
	// so they agree up to summation rounding.
	if d := relDiff(sentBytes, recvBytes); d > 1e-12 {
		t.Errorf("byte totals unbalanced: sent %g, received %g", sentBytes, recvBytes)
	}
	if d := relDiff(sendTime, recvTime); d > 1e-12 {
		t.Errorf("time totals unbalanced: send %g, recv %g", sendTime, recvTime)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// TestProfileRenderFlagsOverrun pins the Render contract on impossible
// rows: busy time genuinely beyond the makespan keeps the clamped idle
// cell but gains a "!" marker and a returned warning, while busy time
// within the rounding epsilon clamps silently as before.
func TestProfileRenderFlagsOverrun(t *testing.T) {
	prof := NewProfile()
	prof.Compute("bad", "h0", 1e6, 0, 1.25) // 25% over a makespan of 1
	prof.Compute("ok", "h0", 1e6, 0, 0.5)
	var buf bytes.Buffer
	warnings := prof.Render(&buf, 1.0)
	out := buf.String()
	if len(warnings) != 1 || !strings.Contains(warnings[0], "bad") {
		t.Fatalf("warnings = %q, want one naming \"bad\"", warnings)
	}
	badLine, okLine := "", ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bad") {
			badLine = line
		}
		if strings.HasPrefix(line, "ok") {
			okLine = line
		}
	}
	if !strings.HasSuffix(badLine, "!") {
		t.Errorf("overrun row lacks the ! marker: %q", badLine)
	}
	if strings.Contains(okLine, "!") {
		t.Errorf("clean row gained a marker: %q", okLine)
	}
	if !strings.Contains(badLine, "0.0%") {
		t.Errorf("overrun row should clamp idle to 0.0%%: %q", badLine)
	}

	// Rounding-level overrun (1e-12 relative) stays silent.
	prof2 := NewProfile()
	prof2.Compute("p0", "h0", 1e6, 0, 1+1e-12)
	buf.Reset()
	if w := prof2.Render(&buf, 1.0); len(w) != 0 {
		t.Fatalf("rounding noise warned: %q", w)
	}
	if strings.Contains(buf.String(), "!") {
		t.Fatalf("rounding noise marked: %q", buf.String())
	}
}

func TestProfileRenderIdleClamped(t *testing.T) {
	// Rounding (or overlapping activity accounting) can push busy time a
	// hair past the makespan; the idle percentage must stay in [0, 100].
	prof := NewProfile()
	prof.Compute("p0", "h0", 1e6, 0, 1.0000001)
	var buf bytes.Buffer
	prof.Render(&buf, 1.0)
	out := buf.String()
	if strings.Contains(out, "-0.0") {
		t.Fatalf("idle percentage not clamped:\n%s", out)
	}
}
