package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. IDs start at 1; parent 0 means a root span.
// Start and End are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot ("replay.run" is in "replay"). Spans without a dot are the
// benchmark's own bookkeeping.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only: the traced run calls every layer sequentially.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name,
		Start: int64(time.Since(r.t0)), Parent: parent})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.dur())
}

// do records fn as a span under parent; fn receives the span's ID so it can
// open children.
func (r *recorder) do(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id := r.begin(name, parent)
	err := fn(id)
	return r.end(id), err
}

// get returns span id.
func (r *recorder) get(id int) span { return r.spans[id-1] }

// writeFile writes the spans as a JSON array.
func (r *recorder) writeFile(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the part of its interval covered by the union of its direct
// children's intervals. Children may overlap each other or stick out of
// their parent; only the covered part inside the parent counts once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the spans' intervals clipped
// to [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// subtree returns the IDs of root and every span below it.
func subtree(spans []span, root int) map[int]bool {
	in := map[int]bool{root: true}
	// Children are always recorded after their parent, so one ordered pass
	// sees every parent before its children.
	for _, s := range spans {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}

// selfByName sums self time per span name over the subtree of root.
func selfByName(spans []span, root int) map[string]int64 {
	self := selfTimes(spans)
	in := subtree(spans, root)
	out := make(map[string]int64)
	for i, s := range spans {
		if in[s.ID] {
			out[s.Name] += self[i]
		}
	}
	return out
}
