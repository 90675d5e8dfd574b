package convert

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tireplay/internal/mpi"
	"tireplay/internal/platform"
	"tireplay/internal/tau"
	"tireplay/internal/trace"
)

// ringProgram is the Figure 1 program: each process computes 1 Mflop and
// sends 1 MB around a ring.
func ringProgram(iters int) mpi.Program {
	return func(c mpi.Comm) {
		me, n := c.Rank(), c.Size()
		next := (me + 1) % n
		prev := (me - 1 + n) % n
		for i := 0; i < iters; i++ {
			if me == 0 {
				c.Compute(1e6)
				c.Send(next, 1e6)
				c.Recv(prev)
			} else {
				c.Recv(prev)
				c.Compute(1e6)
				c.Send(next, 1e6)
			}
		}
	}
}

// figure1Expected is the time-independent trace of Figure 1, prefixed with
// the comm_size declarations the paper requires before any collective.
const figure1Expected = `p0 comm_size 4
p0 compute 1e+06
p0 send p1 1e+06
p0 recv p3
p1 comm_size 4
p1 recv p0
p1 compute 1e+06
p1 send p2 1e+06
p2 comm_size 4
p2 recv p1
p2 compute 1e+06
p2 send p3 1e+06
p3 comm_size 4
p3 recv p2
p3 compute 1e+06
p3 send p0 1e+06
`

func TestExtractFigure1FromLiveAcquisition(t *testing.T) {
	dir := t.TempDir()
	_, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 4}, 0, ringProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	perRank, err := ExtractDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, acts := range perRank {
		for _, a := range acts {
			sb.WriteString(a.Format())
			sb.WriteByte('\n')
		}
	}
	if got := sb.String(); got != figure1Expected {
		t.Fatalf("extracted trace:\n%s\nwant:\n%s", got, figure1Expected)
	}
}

// TestTimeIndependenceAcrossEngines is the paper's core claim (Section 6.2):
// however the application is executed — fast host, slow host, folded,
// scattered — the extracted time-independent trace is identical.
func TestTimeIndependenceAcrossEngines(t *testing.T) {
	prog := func(c mpi.Comm) {
		me, n := c.Rank(), c.Size()
		c.Compute(float64(me+1) * 1e5)
		if me == 0 {
			c.Isend(1, 2e6)
			c.Compute(5e4)
			req := c.Irecv(n - 1)
			c.Wait(req)
		} else if me == 1 {
			c.Recv(0)
		}
		if me == n-1 {
			c.Send(0, 777)
		}
		c.Allreduce(4096, 1e5)
		c.Barrier()
	}

	// Acquisition 1: live engine, fast flop rate.
	dir1 := t.TempDir()
	if _, _, err := tau.AcquireLive(dir1, mpi.LiveConfig{Procs: 4, FlopRate: 5e9}, 0, prog); err != nil {
		t.Fatal(err)
	}
	// Acquisition 2: live engine, slow rate with per-burst variability and
	// tracing overhead.
	dir2 := t.TempDir()
	cfg2 := mpi.LiveConfig{Procs: 4, FlopRate: 1e8,
		Rate: func(rank int, seq int64, flops float64) float64 {
			return 0.5 + 0.1*float64((seq+int64(rank))%7)
		}}
	if _, _, err := tau.AcquireLive(dir2, cfg2, 2e-6, prog); err != nil {
		t.Fatal(err)
	}
	// Acquisition 3: simulation engine, 4 ranks folded on one node.
	dir3 := t.TempDir()
	b, err := platform.BuildBordereau(1)
	if err != nil {
		t.Fatal(err)
	}
	depl, err := platform.RoundRobin(b.HostNames, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tau.AcquireSim(dir3, b, depl, mpi.SimConfig{}, 1e-6, prog); err != nil {
		t.Fatal(err)
	}

	t1, err := ExtractDir(dir1, 4)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ExtractDir(dir2, 4)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := ExtractDir(dir3, 4)
	if err != nil {
		t.Fatal(err)
	}
	text := func(perRank [][]trace.Action) string {
		var sb strings.Builder
		for _, acts := range perRank {
			for _, a := range acts {
				sb.WriteString(a.Format())
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	s1, s2, s3 := text(t1), text(t2), text(t3)
	if s1 != s2 {
		t.Errorf("live fast vs live slow traces differ:\n%s\nvs\n%s", s1, s2)
	}
	if s1 != s3 {
		t.Errorf("live vs folded-sim traces differ:\n%s\nvs\n%s", s1, s3)
	}
}

func TestExtractIrecvLookup(t *testing.T) {
	// An Irecv's source is only known from the RecvMessage inside MPI_Wait;
	// the extractor must back-fill it.
	dir := t.TempDir()
	prog := func(c mpi.Comm) {
		if c.Rank() == 0 {
			req := c.Irecv(1)
			c.Compute(1e5)
			c.Wait(req)
		} else {
			c.Send(0, 4242)
		}
	}
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 2}, 0, prog); err != nil {
		t.Fatal(err)
	}
	perRank, err := ExtractDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var irecv, wait *trace.Action
	for i := range perRank[0] {
		switch perRank[0][i].Type {
		case trace.Irecv:
			irecv = &perRank[0][i]
		case trace.Wait:
			wait = &perRank[0][i]
		}
	}
	if irecv == nil || wait == nil {
		t.Fatalf("rank 0 actions: %+v", perRank[0])
	}
	if irecv.Peer != 1 {
		t.Fatalf("Irecv source not back-filled: %+v", *irecv)
	}
}

func TestExtractReduceVcomp(t *testing.T) {
	dir := t.TempDir()
	prog := func(c mpi.Comm) {
		c.Reduce(2048, 3e5)
	}
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 2}, 0, prog); err != nil {
		t.Fatal(err)
	}
	perRank, err := ExtractDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r, acts := range perRank {
		found := false
		for _, a := range acts {
			if a.Type == trace.Reduce {
				found = true
				if a.Volume != 2048 || a.Volume2 != 3e5 {
					t.Errorf("rank %d reduce = %+v", r, a)
				}
			}
		}
		if !found {
			t.Errorf("rank %d has no reduce action", r)
		}
	}
}

func TestExtractTrailingComputeCaptured(t *testing.T) {
	// A burst after the last MPI call must appear, closed by MPI_Finalize.
	dir := t.TempDir()
	prog := func(c mpi.Comm) {
		c.Barrier()
		c.Compute(9e5)
	}
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 2}, 0, prog); err != nil {
		t.Fatal(err)
	}
	perRank, err := ExtractDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := perRank[0][len(perRank[0])-1]
	if last.Type != trace.Compute || last.Volume != 9e5 {
		t.Fatalf("trailing action = %+v", last)
	}
}

func TestExtractErrorsOnMissingFiles(t *testing.T) {
	if _, err := ExtractProcess(0, "/nonexistent/t.trc", "/nonexistent/e.edf"); err == nil {
		t.Fatal("expected error for missing files")
	}
}

func TestFlatten(t *testing.T) {
	perRank := [][]trace.Action{
		{{Proc: 0, Type: trace.Barrier, Peer: -1}},
		{{Proc: 1, Type: trace.Barrier, Peer: -1}, {Proc: 1, Type: trace.Wait, Peer: -1}},
	}
	flat := Flatten(perRank)
	if len(flat) != 3 || flat[0].Proc != 0 || flat[2].Type != trace.Wait {
		t.Fatalf("flatten = %+v", flat)
	}
}

func TestExtractedTraceIsValid(t *testing.T) {
	// Every extracted action passes the trace validator and survives a
	// text round trip.
	dir := t.TempDir()
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 4}, 0, ringProgram(3)); err != nil {
		t.Fatal(err)
	}
	perRank, err := ExtractDir(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, acts := range perRank {
		for _, a := range acts {
			if err := a.Validate(); err != nil {
				t.Fatalf("invalid extracted action %+v: %v", a, err)
			}
			if _, ok, err := trace.ParseLine(a.Format()); err != nil || !ok {
				t.Fatalf("unparseable extracted action %q: %v", a.Format(), err)
			}
		}
	}
}

// TestExtractDirLowestRankError: rank 1's event file turns corrupt only
// after 100000 comment lines and rank 3's on its first line, so rank 3
// usually fails first, yet every extraction returns rank 1's error, the
// one a serial loop stops at. Each returns only once every rank it started
// has stopped, so the goroutine count is back at its baseline.
func TestExtractDirLowestRankError(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 4}, 0, ringProgram(50)); err != nil {
		t.Fatal(err)
	}
	edf := func(r int) string { return filepath.Join(dir, tau.EventFileName(r)) }
	body, err := os.ReadFile(edf(1))
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, strings.Repeat("# padding\n", 100000)+"not an event\n"...)
	if err := os.WriteFile(edf(1), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edf(3), []byte("not an event\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := ExtractProcess(1, filepath.Join(dir, tau.TraceFileName(1)), edf(1))
	if want == nil {
		t.Fatal("rank 1's corrupt event file extracted")
	}
	before := runtime.NumGoroutine()
	for i := range 20 {
		if _, err := ExtractDir(dir, 4); err == nil || err.Error() != want.Error() {
			t.Fatalf("run %d: %v, want %q", i, err, want)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the extractions, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExtractDirSizedByFilesFound: a rank count far past the acquisition
// fails on the first missing rank without a table or a goroutine per
// requested rank. Extracting the two ranks takes ~150 KB; one table of
// 1<<20 action lists alone would take 24 MB.
func TestExtractDirSizedByFilesFound(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := tau.AcquireLive(dir, mpi.LiveConfig{Procs: 2}, 0, ringProgram(1)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perRank, err := ExtractDir(dir, 1<<20)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), tau.EventFileName(2)) {
		t.Fatalf("ExtractDir(dir, 1<<20) = %d ranks, %v; want rank 2 missing", len(perRank), err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("failed extraction of 2 of 1<<20 ranks allocated %d B, want under 1 MB", d)
	}
}
