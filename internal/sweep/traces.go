package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tireplay/internal/replay"
	"tireplay/internal/trace"
)

// TraceSet is the one shared input of a sweep: every rank's
// time-independent trace held once as a binary (.tib) image and handed to
// every scenario read-only. A .tib file stays memory-mapped, so its image
// is the page cache itself; a text or gzip file is encoded into an image in
// memory at load, at about 7.5 B per action, the ranks of one set on up to
// GOMAXPROCS goroutines (LoadDir, TracesFromTexts). Each scenario decodes
// each rank with a cursor of its own (source), so concurrent workers never
// share a decoder position.
type TraceSet struct {
	images [][]byte             // rank r's image
	errs   []error              // rank r's encoding error, if TracesFromActions met one
	mapped []*trace.MappedTrace // rank r's mapping behind a .tib image, else nil
}

// TracesFromActions encodes per-rank action lists into images; the lists
// are not retained. A rank holding an action that fails Validate keeps the
// error instead of an image, and every scenario replaying that rank fails
// with it.
func TracesFromActions(perRank [][]trace.Action) *TraceSet {
	t := &TraceSet{images: make([][]byte, len(perRank))}
	for r, acts := range perRank {
		img := trace.AppendBinaryHeader(nil)
		for i, a := range acts {
			var err error
			if img, err = trace.AppendBinary(img, a); err != nil {
				if t.errs == nil {
					t.errs = make([]error, len(perRank))
				}
				t.errs[r] = fmt.Errorf("sweep: rank %d: action %d: %w", r, i+1, err)
				img = nil
				break
			}
		}
		t.images[r] = img
	}
	return t
}

// TracesFromTexts encodes per-rank textual traces into images
// (trace.EncodeText); the texts are not retained. The ranks are encoded on
// min(GOMAXPROCS, len(texts)) goroutines, each image into its rank's slot,
// so the images are those of a serial encode. A malformed rank fails the
// whole set with "rank N: …" naming the lowest malformed rank, as a serial
// encode would.
func TracesFromTexts(texts []string) (*TraceSet, error) {
	t := &TraceSet{images: make([][]byte, len(texts))}
	err := eachRank(len(texts), func(r int) (err error) {
		if t.images[r], err = trace.EncodeText(strings.NewReader(texts[r])); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LoadDir loads the n per-rank trace files of dir, resolving each rank's
// file among the three encodings tau2ti emits (SG_process<r>.trace, .trace.gz,
// .tib). A .tib file is memory-mapped and never copied, and its records are
// checked as scenarios decode them; a text or gzip file is encoded into an
// image once (trace.ReadImage), so its errors surface here. The files are
// resolved in rank order up to the first missing rank, then loaded on
// min(GOMAXPROCS, ranks found) goroutines, each image into its rank's slot.
// A failed load returns what loading the ranks one by one would: the error
// of the lowest rank that is missing or fails to load; it unmaps everything
// it mapped. Close the set when the sweep is done.
func LoadDir(dir string, n int) (*TraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sweep: need a positive rank count")
	}
	// The ranks before a missing one load first: one of them may fail, and
	// its error comes before the missing rank's.
	paths, missing := trace.RankFiles(dir, n)
	ts := &TraceSet{images: make([][]byte, len(paths)), mapped: make([]*trace.MappedTrace, len(paths))}
	err := eachRank(len(paths), func(r int) (err error) {
		ts.images[r], ts.mapped[r], err = loadRank(paths[r])
		return err
	})
	if err == nil {
		err = missing
	}
	if err != nil {
		ts.Close()
		return nil, err
	}
	return ts, nil
}

// loadRank loads one rank's file as LoadDir describes: a .tib file is
// mapped and its header checked, any other file is read as an image.
func loadRank(path string) ([]byte, *trace.MappedTrace, error) {
	if !strings.HasSuffix(path, ".tib") {
		img, err := trace.ReadImage(path)
		return img, nil, err
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	if _, err := m.Cursor(); err != nil {
		m.Close()
		return nil, nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return m.Data(), m, nil
}

// eachRank calls load for ranks 0..n-1 on min(GOMAXPROCS, n) goroutines,
// each taking the next rank in rank order, and returns once all have
// stopped. After a rank fails no further rank is started; every lower rank
// was started before it, so the error returned, the lowest failed rank's,
// is the one a serial loop would return. A panic in load is raised again
// on the caller's goroutine.
func eachRank(n int, load func(r int) error) error {
	width := min(runtime.GOMAXPROCS(0), n)
	errs := make([]error, n)
	panics := make([]any, width)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[w] = p
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				r := int(next.Add(1) - 1)
				if r >= n {
					return
				}
				if errs[r] = load(r); errs[r] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ranks returns the number of ranks in the set.
func (t *TraceSet) Ranks() int { return len(t.images) }

// Close releases the mapped views and drops every image, so a scenario
// that replays the set afterwards fails instead of reading unmapped pages.
// Safe on a partially loaded set.
func (t *TraceSet) Close() error {
	clear(t.images)
	var first error
	for _, m := range t.mapped {
		if m == nil {
			continue
		}
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.mapped = nil
	return first
}

// source returns a fresh cursor over rank r's image for one scenario run.
func (t *TraceSet) source(r int) (replay.Source, error) {
	if t.errs != nil && t.errs[r] != nil {
		return nil, t.errs[r]
	}
	cur, err := trace.NewBinaryCursor(t.images[r])
	if err != nil {
		return nil, err
	}
	return cur, nil
}
