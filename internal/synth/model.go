// Package synth fits a compact statistical model from a recorded
// time-independent trace and regenerates synthetic traces at arbitrary
// world sizes (the MapReplay trace-driven-generation direction named in
// PAPERS.md). A recorded trace stops at the cluster that was traced; the
// fitted model captures what the trace *is* — the p2p stencil each rank
// class exchanges on, the compute bursts between communications, the
// collective cadence — so the same application can be replayed on fabrics
// with thousands of hosts that nothing ever recorded.
//
// The model is deliberately structural, not stochastic: regenerating at
// the recorded world size reproduces the recorded trace action-for-action
// (the differential tests pin this against internal/npb's closed-form
// generators), and regeneration at any size is deterministic and
// byte-reproducible given the same Spec, so synthetic scenarios inherit
// every determinism guarantee of the sweep engine.
//
// Terminology: ranks are laid on a GridW x GridH row-major grid
// (col = rank % GridW, matching internal/npb's grid2D). A Dir is an
// abstract neighbour direction — a (dx, dy) grid offset or a column-XOR
// (butterfly) pairing — and every p2p op in the model names a Dir instead
// of a concrete peer. A rank class is the set of ranks sharing a set of
// present Dirs (interior ranks, edges, corners); the fit proves one op
// template filtered by Dir presence reproduces every class.
package synth

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"tireplay/internal/trace"
)

// Dir kinds.
const (
	// DirOffset pairs rank (x, y) with (x+DX, y+DY); the op is skipped for
	// ranks whose neighbour falls off the grid.
	DirOffset = "offset"
	// DirXor pairs rank (x, y) with (x^(1<<Bit), y) — the butterfly
	// pattern of recursive-doubling exchanges (NPB CG's transpose).
	DirXor = "xor"
)

// Dir is an abstract neighbour direction on the rank grid.
type Dir struct {
	Kind string `json:"kind"`
	DX   int    `json:"dx,omitempty"`
	DY   int    `json:"dy,omitempty"`
	Bit  int    `json:"bit,omitempty"`
}

func (d Dir) String() string {
	if d.Kind == DirXor {
		return fmt.Sprintf("xor:%d", d.Bit)
	}
	return fmt.Sprintf("offset:%+d%+d", d.DX, d.DY)
}

// Conjugate returns the direction a peer uses to address this rank back:
// the mirrored offset, or the same XOR bit (XOR pairings are symmetric).
func (d Dir) Conjugate() Dir {
	if d.Kind == DirXor {
		return d
	}
	return Dir{Kind: DirOffset, DX: -d.DX, DY: -d.DY}
}

// Op is one templated action inside a segment phase. Dir indexes
// Model.Dirs and is -1 for ops without a direction (compute, waitAll).
type Op struct {
	Type trace.ActionType
	Dir  int
	Vol  float64
}

type opJSON struct {
	Op  string  `json:"op"`
	Dir *int    `json:"dir,omitempty"`
	Vol float64 `json:"vol,omitempty"`
}

func (o Op) MarshalJSON() ([]byte, error) {
	j := opJSON{Op: o.Type.String(), Vol: o.Vol}
	if o.Dir >= 0 {
		j.Dir = &o.Dir
	}
	return json.Marshal(j)
}

func (o *Op) UnmarshalJSON(data []byte) error {
	var j opJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	t, ok := trace.TypeFromName(j.Op)
	if !ok {
		return fmt.Errorf("synth: unknown op type %q", j.Op)
	}
	o.Type = t
	o.Dir = -1
	if j.Dir != nil {
		o.Dir = *j.Dir
	}
	o.Vol = j.Vol
	return nil
}

// CollPhase is one collective operation every rank executes in lockstep,
// optionally preceded by a compute burst of Comp flops (Comp2 carries the
// reduction-compute volume for reduce/allReduce actions).
type CollPhase struct {
	Type trace.ActionType
	Comm float64 // communicated bytes (0 for barrier)
	Red  float64 // per-element reduction flops (Volume2 of reduce/allReduce)
	Comp float64 // compute burst flushed immediately before the collective
}

type collJSON struct {
	Type string  `json:"type"`
	Comm float64 `json:"comm,omitempty"`
	Red  float64 `json:"red,omitempty"`
	Comp float64 `json:"comp,omitempty"`
}

func (c CollPhase) MarshalJSON() ([]byte, error) {
	return json.Marshal(collJSON{Type: c.Type.String(), Comm: c.Comm, Red: c.Red, Comp: c.Comp})
}

func (c *CollPhase) UnmarshalJSON(data []byte) error {
	var j collJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	t, ok := trace.TypeFromName(j.Type)
	if !ok {
		return fmt.Errorf("synth: unknown collective type %q", j.Type)
	}
	*c = CollPhase{Type: t, Comm: j.Comm, Red: j.Red, Comp: j.Comp}
	return nil
}

// SegPhase is a point-to-point segment: the union op template all rank
// classes share, compressed as Pre + Body x Reps + Tail. Each rank emits
// the ops whose Dir exists for its grid position; consecutive surviving
// compute ops coalesce into one burst exactly as the acquisition recorder
// merges PAPI bursts, which is what makes boundary-rank output reproduce
// the recorded trace byte-for-byte.
type SegPhase struct {
	Pre  []Op `json:"pre,omitempty"`
	Body []Op `json:"body,omitempty"`
	Reps int  `json:"reps,omitempty"`
	Tail []Op `json:"tail,omitempty"`
}

// Len returns the expanded op count of the segment.
func (s *SegPhase) Len() int {
	return len(s.Pre) + s.Reps*len(s.Body) + len(s.Tail)
}

// Phase is either a collective or a p2p segment (exactly one is set).
type Phase struct {
	Coll *CollPhase `json:"coll,omitempty"`
	Seg  *SegPhase  `json:"seg,omitempty"`
}

// Model is a fitted synthetic-trace model. The top-level phase script is
// itself compressed: phase indices in Prologue, then Body repeated Reps
// times, then Tail. Reps is the knob the reps scaling exponent acts on.
type Model struct {
	// App is a free-form label ("lu.S.16") carried for reports.
	App string `json:"app,omitempty"`
	// World is the recorded world size the model was fitted at.
	World int `json:"world"`
	// GridW x GridH is the recorded rank grid (row-major, col = rank%GridW).
	GridW int `json:"grid_w"`
	GridH int `json:"grid_h"`
	// Dirs is the direction table Op.Dir indexes into.
	Dirs []Dir `json:"dirs,omitempty"`
	// Phases is the deduplicated phase table the script indexes into.
	Phases []Phase `json:"phases"`
	// Prologue/Body/Reps/Tail is the compressed top-level script.
	Prologue []int `json:"prologue,omitempty"`
	Body     []int `json:"body,omitempty"`
	Reps     int   `json:"reps,omitempty"`
	Tail     []int `json:"tail,omitempty"`
}

// Script expands the compressed top-level phase script into phase indices.
func (m *Model) Script() []int {
	out := make([]int, 0, len(m.Prologue)+m.Reps*len(m.Body)+len(m.Tail))
	out = append(out, m.Prologue...)
	for i := 0; i < m.Reps; i++ {
		out = append(out, m.Body...)
	}
	out = append(out, m.Tail...)
	return out
}

// Validate checks internal consistency of the model.
func (m *Model) Validate() error {
	if m.World <= 0 {
		return fmt.Errorf("synth: model world %d must be positive", m.World)
	}
	if m.GridW <= 0 || m.GridH <= 0 || m.GridW*m.GridH != m.World {
		return fmt.Errorf("synth: grid %dx%d does not tile world %d", m.GridW, m.GridH, m.World)
	}
	if len(m.Dirs) > 64 {
		return fmt.Errorf("synth: %d directions exceed the 64-dir class mask", len(m.Dirs))
	}
	for i, d := range m.Dirs {
		switch d.Kind {
		case DirOffset:
			if d.DX == 0 && d.DY == 0 {
				return fmt.Errorf("synth: dir %d is a zero offset", i)
			}
		case DirXor:
			if d.Bit < 0 || d.Bit > 30 {
				return fmt.Errorf("synth: dir %d has xor bit %d out of range", i, d.Bit)
			}
		default:
			return fmt.Errorf("synth: dir %d has unknown kind %q", i, d.Kind)
		}
	}
	checkOps := func(ops []Op) error {
		for _, op := range ops {
			switch op.Type {
			case trace.Compute, trace.Wait, trace.WaitAll:
				if op.Dir >= len(m.Dirs) {
					return fmt.Errorf("synth: op %s dir %d out of range", op.Type, op.Dir)
				}
			case trace.Send, trace.Isend, trace.Recv, trace.Irecv:
				if op.Dir < 0 || op.Dir >= len(m.Dirs) {
					return fmt.Errorf("synth: p2p op %s needs a valid dir, got %d", op.Type, op.Dir)
				}
			default:
				return fmt.Errorf("synth: op type %s not allowed inside a segment", op.Type)
			}
			if math.IsNaN(op.Vol) || math.IsInf(op.Vol, 0) || op.Vol < 0 {
				return fmt.Errorf("synth: op %s has unusable volume %g", op.Type, op.Vol)
			}
		}
		return nil
	}
	for i := range m.Phases {
		ph := &m.Phases[i]
		switch {
		case ph.Coll != nil && ph.Seg == nil:
			switch ph.Coll.Type {
			case trace.Bcast, trace.Reduce, trace.AllReduce, trace.Barrier,
				trace.Gather, trace.AllGather, trace.AllToAll, trace.Scatter:
			default:
				return fmt.Errorf("synth: phase %d has non-collective type %s", i, ph.Coll.Type)
			}
		case ph.Seg != nil && ph.Coll == nil:
			if ph.Seg.Reps < 0 || (ph.Seg.Reps > 0 && len(ph.Seg.Body) == 0) {
				return fmt.Errorf("synth: phase %d repeats an empty body", i)
			}
			for _, ops := range [][]Op{ph.Seg.Pre, ph.Seg.Body, ph.Seg.Tail} {
				if err := checkOps(ops); err != nil {
					return fmt.Errorf("phase %d: %w", i, err)
				}
			}
		default:
			return fmt.Errorf("synth: phase %d must set exactly one of coll/seg", i)
		}
	}
	if m.Reps < 0 || (m.Reps > 0 && len(m.Body) == 0) {
		return fmt.Errorf("synth: script repeats an empty body")
	}
	// The indices Script would expand, checked without expanding it.
	parts := [][]int{m.Prologue, m.Tail}
	if m.Reps > 0 {
		parts = append(parts, m.Body)
	}
	for _, part := range parts {
		for _, idx := range part {
			if idx < 0 || idx >= len(m.Phases) {
				return fmt.Errorf("synth: script phase index %d out of range", idx)
			}
		}
	}
	return nil
}

// WriteJSON writes the model as indented JSON.
func (m *Model) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadModel parses a model from JSON and validates it.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("synth: decoding model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadModelFile reads and validates a model from a JSON file.
func ReadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadModel(f)
}
