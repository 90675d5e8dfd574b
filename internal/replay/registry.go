// Package replay is the trace replay tool of Section 5: the paper's primary
// contribution. It re-executes a time-independent trace on top of the
// simulation kernel against a platform and a deployment description, and
// outputs the simulated execution time (optionally with a timed trace of the
// simulated run, Figure 4).
//
// Mirroring the MSG-based design of the paper, each action keyword is bound
// to a handler function through a registry (the MSG_action_register
// mechanism), per-process replayers execute their action streams as kernel
// processes, and collective operations are decomposed into sets of
// point-to-point communications rooted at process 0.
package replay

import (
	"fmt"
	"sort"

	"tireplay/internal/trace"
)

// Handler implements the simulated behaviour of one action keyword. It runs
// inside the replayer process's coroutine (see simx.Proc) and may use every
// blocking operation of p.Sim.
type Handler func(p *Proc, a trace.Action) error

// Registry binds action keywords to handlers, the analogue of
// MSG_action_register in the paper's prototype. A nil Registry in the replay
// configuration means Default().
type Registry struct {
	handlers map[string]Handler
	// byType caches handlers of the known action types in a dense array,
	// so the per-action Lookup on the replay hot path is an index, not a
	// map hash.
	byType [trace.NumTypes]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[string]Handler)}
}

// Register binds keyword to handler, replacing any previous binding —
// ablation studies use this to swap collective implementations.
func (r *Registry) Register(keyword string, h Handler) {
	r.handlers[keyword] = h
	if t, ok := trace.TypeFromName(keyword); ok {
		r.byType[t] = h
	}
}

// Lookup resolves the handler of an action type.
func (r *Registry) Lookup(t trace.ActionType) (Handler, error) {
	if int(t) < len(r.byType) {
		if h := r.byType[t]; h != nil {
			return h, nil
		}
	}
	return nil, fmt.Errorf("replay: no handler registered for action %q", t.String())
}

// Keywords lists the registered keywords in sorted order.
func (r *Registry) Keywords() []string {
	out := make([]string, 0, len(r.handlers))
	for k := range r.handlers {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Default returns a registry with the paper's semantics for every action of
// Table 1.
func Default() *Registry {
	r := NewRegistry()
	r.Register("compute", handleCompute)
	r.Register("send", handleSend)
	r.Register("Isend", handleIsend)
	r.Register("recv", handleRecv)
	r.Register("Irecv", handleIrecv)
	r.Register("wait", handleWait)
	r.Register("bcast", handleBcast)
	r.Register("reduce", handleReduce)
	r.Register("allReduce", handleAllReduce)
	r.Register("barrier", handleBarrier)
	r.Register("comm_size", handleCommSize)
	r.Register("waitAll", handleWaitAll)
	r.Register("gather", handleGather)
	r.Register("allGather", handleAllGather)
	r.Register("allToAll", handleAllToAll)
	r.Register("scatter", handleScatter)
	return r
}
