package sweep

import (
	"fmt"
	"strings"

	"tireplay/internal/replay"
	"tireplay/internal/trace"
)

// TraceSet is the one shared input of a sweep: every rank's
// time-independent trace held once as a binary (.tib) image and handed to
// every scenario read-only. A .tib file stays memory-mapped, so its image
// is the page cache itself; a text or gzip file is encoded into an image in
// memory at load, at about 7.5 B per action. Each scenario decodes each
// rank with a cursor of its own (source), so concurrent workers never share
// a decoder position.
type TraceSet struct {
	images [][]byte             // rank r's image
	errs   []error              // rank r's encoding error, if TracesFromActions met one
	mapped []*trace.MappedTrace // the mappings behind the .tib images
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

// TracesFromImages wraps per-rank images (trace.EncodeText,
// trace.ReadImage), which are retained and must not be mutated while a
// sweep runs. A rank whose image lacks a valid header fails every scenario
// replaying it.
func TracesFromImages(images [][]byte) *TraceSet {
	return &TraceSet{images: images}
}

// LoadDir loads the n per-rank trace files of dir, resolving each rank's
// file among the three encodings tau2ti emits (SG_process<r>.trace, .trace.gz,
// .tib). A .tib file is memory-mapped and never copied, and its records are
// checked as scenarios decode them; a text or gzip file is encoded into an
// image once (trace.ReadImage), so its errors surface here. Close the set
// when the sweep is done.
func LoadDir(dir string, n int) (*TraceSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sweep: need a positive rank count")
	}
	ts := &TraceSet{images: make([][]byte, n)}
	for r := 0; r < n; r++ {
		path, err := trace.RankFile(dir, r)
		if err != nil {
			ts.Close()
			return nil, err
		}
		if !strings.HasSuffix(path, ".tib") {
			if ts.images[r], err = trace.ReadImage(path); err != nil {
				ts.Close()
				return nil, err
			}
			continue
		}
		m, err := trace.OpenMapped(path)
		if err != nil {
			ts.Close()
			return nil, err
		}
		ts.mapped = append(ts.mapped, m)
		if _, err := m.Cursor(); err != nil {
			ts.Close()
			return nil, fmt.Errorf("sweep: %s: %w", path, err)
		}
		ts.images[r] = m.Data()
	}
	return ts, nil
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
