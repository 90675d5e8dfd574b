package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tireplay/internal/npb"
	"tireplay/internal/platform"
)

// streamTimed points cfg's timed traces at files in a fresh directory
// (TimedDir) and returns the directory.
func streamTimed(t *testing.T, cfg *Config) string {
	t.Helper()
	dir := t.TempDir()
	open, err := TimedDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OpenTimed = open
	return dir
}

// runTimed runs cfg; with stream set, its timed traces go to files in a
// fresh directory and are read back into the rows (readPublished).
func runTimed(t *testing.T, cfg *Config, stream bool) (*Result, error) {
	t.Helper()
	if !stream {
		return Run(context.Background(), cfg)
	}
	dir := streamTimed(t, cfg)
	res, err := Run(context.Background(), cfg)
	if err == nil {
		readPublished(t, dir, res)
	}
	return res, err
}

// readPublished reads each completed row's timed trace back from its file
// in dir into the row's TimedTrace. It fails the test when a streamed row
// holds its trace in memory, when a row with Err published a file, and
// when dir holds anything else, such as a temporary file.
func readPublished(t *testing.T, dir string, res *Result) {
	t.Helper()
	published := make(map[string]bool)
	for i := range res.Scenarios {
		r := &res.Scenarios[i]
		if r.TimedTrace != nil {
			t.Fatalf("scenario %d (%s): a streamed trace is held in memory", r.Index, r.Name)
		}
		name := fmt.Sprintf("scenario%d.timed", r.Index)
		b, err := os.ReadFile(filepath.Join(dir, name))
		switch {
		case r.Err != "" && !errors.Is(err, os.ErrNotExist):
			t.Fatalf("scenario %d (%s) failed (%s) but published %s (read error %v)", r.Index, r.Name, r.Err, name, err)
		case r.Err != "":
			continue
		case err != nil:
			t.Fatalf("scenario %d (%s) completed without publishing its trace: %v", r.Index, r.Name, err)
		}
		r.TimedTrace = b
		published[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !published[e.Name()] {
			t.Fatalf("%s holds %s, which no completed row published", dir, e.Name())
		}
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestStreamedTimedMemoryFlat is the memory gate of streamed timed traces:
// the live heap after each completed scenario must not grow with the grid.
// The buffered path, which holds every trace of the grid, must grow, or the
// fixture is too small to tell. It replays on one worker, so the race
// detector has nothing to check here, and it would slow the 80 replays
// about fortyfold.
func TestStreamedTimedMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("single-worker memory gate; too slow under the race detector")
	}
	ts := npbFixture("cg")(t)
	base := platform.Bordereau(8)
	peak := func(cells int, stream bool) uint64 {
		lat := make([]float64, cells)
		for i := range lat {
			lat[i] = 1 + float64(i)/float64(cells)
		}
		var mu sync.Mutex
		var most uint64
		cfg := &Config{Platform: base, Grid: Grid{LatencyScale: lat}, Traces: ts,
			Workers: 1, Timed: true,
			OnResult: func(*ScenarioResult) {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				most = max(most, ms.HeapAlloc)
				mu.Unlock()
			}}
		if stream {
			streamTimed(t, cfg)
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Scenarios {
			if res.Scenarios[i].Err != "" {
				t.Fatalf("scenario %d: %s", i, res.Scenarios[i].Err)
			}
		}
		return most
	}
	const mb = 1 << 20
	s8, s32 := peak(8, true), peak(32, true)
	b8, b32 := peak(8, false), peak(32, false)
	t.Logf("peak live heap, 8 -> 32 cells: streamed %.1f -> %.1f MB, buffered %.1f -> %.1f MB",
		float64(s8)/mb, float64(s32)/mb, float64(b8)/mb, float64(b32)/mb)
	if b32 < 2*b8 {
		t.Fatalf("buffered peak grew only from %d to %d bytes: the fixture cannot show a bound", b8, b32)
	}
	if 4*s32 > 5*s8 {
		t.Fatalf("streamed peak grew from %d to %d bytes, more than 1.25x", s8, s32)
	}
}

// errDiskFull is the write error of a failingDest.
var errDiskFull = errors.New("disk full")

// failingDest fails once limit bytes have landed, as a full disk would.
type failingDest struct {
	TimedDest
	left int
}

func (d *failingDest) Write(p []byte) (int, error) {
	if len(p) <= d.left {
		d.left -= len(p)
		return d.TimedDest.Write(p)
	}
	n, _ := d.TimedDest.Write(p[:d.left])
	d.left = 0
	return n, errDiskFull
}

// failingPublish discards its trace and fails to publish it.
type failingPublish struct{ TimedDest }

func (d failingPublish) Publish() error {
	d.Discard()
	return errDiskFull
}

// TestStreamedTimedDestErrors fails the destinations of some rows: at open,
// after 100 KB of an LU class S trace (about 1 MB, so the writer fails
// mid-replay and its sticky error meets real I/O), or at publish. Those
// rows, and only those, must fail with "sweep: timed trace: …" and publish
// nothing; the others publish the bytes the buffered sweep holds. When the
// replayed row of a group fails to open or write its destination, its
// sibling fails with that error without opening a destination or
// replaying; when only the sibling's copy fails, the replayed row still
// publishes, and when only the replayed row's publish fails, the sibling
// has already copied the trace.
func TestStreamedTimedDestErrors(t *testing.T) {
	ts := luTraces(t, npb.ClassS, 4)
	grid := mustGrid(t, GridSpec{Coll: "linear;binomial", Ckpt: "none;60/5"})
	newCfg := func() *Config {
		return &Config{Platform: platform.BordereauWithCores(4, 1), Grid: grid, Traces: ts,
			Workers: 2, Timed: true, Fork: true}
	}
	buffered, err := Run(context.Background(), newCfg())
	if err != nil {
		t.Fatal(err)
	}
	binomial := func(sc *Scenario) bool { return strings.Contains(sc.Name(), "coll=binomial") }
	for _, tc := range []struct {
		name, fails string // fails is "open", "write" or "publish"
		fail        func(sc *Scenario) bool
		// siblingsFail: the replayed row's destination fails, so the
		// failing rows of its group must fail without opening one.
		siblingsFail bool
	}{
		{"replayed row", "write", binomial, true},
		{"copied row", "write", func(sc *Scenario) bool { return binomial(sc) && sc.Ckpt != nil }, false},
		{"group", "open", binomial, true},
		{"replayed row", "publish", func(sc *Scenario) bool { return binomial(sc) && sc.Ckpt == nil }, false},
	} {
		t.Run(tc.fails+"/"+tc.name, func(t *testing.T) {
			cfg := newCfg()
			dir := streamTimed(t, cfg)
			open := cfg.OpenTimed
			var mu sync.Mutex
			opened := make(map[int]bool)
			cfg.OpenTimed = func(sc *Scenario) (TimedDest, error) {
				mu.Lock()
				opened[sc.Index] = true
				mu.Unlock()
				d, err := open(sc)
				if err != nil || !tc.fail(sc) {
					return d, err
				}
				switch tc.fails {
				case "open":
					d.Discard()
					return nil, errDiskFull
				case "publish":
					return failingPublish{d}, nil
				}
				return &failingDest{TimedDest: d, left: 100 << 10}, nil
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			readPublished(t, dir, res)
			for i := range res.Scenarios {
				r, want := &res.Scenarios[i], &buffered.Scenarios[i]
				if !tc.fail(&r.Scenario) {
					if r.Err != "" || !bytes.Equal(r.TimedTrace, want.TimedTrace) {
						t.Errorf("scenario %d (%s): err %q, published trace equal to the buffered one: %v",
							i, r.Name, r.Err, bytes.Equal(r.TimedTrace, want.TimedTrace))
					}
					if r.Ckpt != nil && !r.Forked {
						t.Errorf("scenario %d (%s) replayed instead of copying its group's trace", i, r.Name)
					}
					continue
				}
				if !strings.HasPrefix(r.Err, "sweep: timed trace: ") || !strings.Contains(r.Err, errDiskFull.Error()) {
					t.Errorf("scenario %d (%s): err %q, want the destination's error", i, r.Name, r.Err)
				}
				if tc.siblingsFail && r.Ckpt != nil && opened[r.Index] {
					t.Errorf("scenario %d (%s) opened a destination after its group's replayed row lost its own",
						i, r.Name)
				}
			}
		})
	}
}

// TestStreamedTimedCancel cancels the sweep from the first OnResult: every
// completed row publishes its whole trace, and a row left canceled never
// opens a destination.
func TestStreamedTimedCancel(t *testing.T) {
	ts := forkTraces(t, forkSweepTrace, 4)
	grid := mustGrid(t, GridSpec{Lat: "1,2,3,4,5,6,7,8", Ckpt: "none;60/5"})
	newCfg := func() *Config {
		return &Config{Platform: platform.BordereauWithCores(4, 1), Grid: grid, Traces: ts,
			Workers: 2, Timed: true, Fork: true}
	}
	buffered, err := Run(context.Background(), newCfg())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := newCfg()
	cfg.OnResult = func(*ScenarioResult) { cancel() }
	dir := streamTimed(t, cfg)
	open := cfg.OpenTimed
	var mu sync.Mutex
	opened := make(map[int]bool)
	cfg.OpenTimed = func(sc *Scenario) (TimedDest, error) {
		mu.Lock()
		opened[sc.Index] = true
		mu.Unlock()
		return open(sc)
	}
	res, err := Run(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	readPublished(t, dir, res)
	done, canceled := 0, 0
	for i := range res.Scenarios {
		r := &res.Scenarios[i]
		switch r.Err {
		case "":
			done++
			if !bytes.Equal(r.TimedTrace, buffered.Scenarios[i].TimedTrace) {
				t.Errorf("scenario %d (%s): published trace differs from the buffered one", i, r.Name)
			}
		case "sweep: canceled":
			canceled++
			if opened[r.Index] {
				t.Errorf("canceled scenario %d (%s) opened a destination", i, r.Name)
			}
		default:
			t.Fatalf("scenario %d (%s): unexpected error %q", i, r.Name, r.Err)
		}
	}
	if done == 0 || canceled == 0 {
		t.Fatalf("%d rows completed and %d were canceled; want some of each", done, canceled)
	}
}

// TestStreamedTimedOpenFilesBounded shares one replay among 40 rows (a
// 40-entry ckpt axis): each derived row copies the trace into its own
// destination after the replay, one at a time, so a worker holds at most
// two destinations open whatever the group's size.
func TestStreamedTimedOpenFilesBounded(t *testing.T) {
	ckpts := []string{"none"}
	for i := 1; i < 40; i++ {
		ckpts = append(ckpts, fmt.Sprintf("%d/5", 60+i))
	}
	const workers = 2
	cfg := &Config{Platform: platform.BordereauWithCores(4, 1), Traces: forkTraces(t, forkSweepTrace, 4),
		Grid:    mustGrid(t, GridSpec{Coll: "linear;binomial", Ckpt: strings.Join(ckpts, ";")}),
		Workers: workers, Timed: true, Fork: true}
	dir := streamTimed(t, cfg)
	open := cfg.OpenTimed
	var mu sync.Mutex
	var now, most int
	cfg.OpenTimed = func(sc *Scenario) (TimedDest, error) {
		d, err := open(sc)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		now++
		most = max(most, now)
		mu.Unlock()
		return &countedDest{TimedDest: d, release: func() {
			mu.Lock()
			now--
			mu.Unlock()
		}}, nil
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	readPublished(t, dir, res)
	if n := countForked(res); n != 78 {
		t.Fatalf("%d rows reused a replay, want 78", n)
	}
	if now != 0 || most > 2*workers {
		t.Fatalf("%d destinations left open, at most %d open at once; want 0 and at most %d", now, most, 2*workers)
	}
}

// countedDest calls release when the engine releases the destination.
type countedDest struct {
	TimedDest
	release func()
}

func (d *countedDest) Publish() error {
	d.release()
	return d.TimedDest.Publish()
}

func (d *countedDest) Discard() {
	d.release()
	d.TimedDest.Discard()
}

func mustGrid(t *testing.T, spec GridSpec) Grid {
	t.Helper()
	g, err := spec.Parse()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
