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
// point-to-point communications rooted at process 0. A replayer is a
// resumable state machine: with the built-in actions it runs as a simx step
// process, parking where an action waits instead of blocking a goroutine.
package replay

import (
	"fmt"
	"sort"

	"tireplay/internal/trace"
)

// Handler implements the simulated behaviour of one action keyword and may
// use every blocking operation of p.Sim. A registry with a registered
// handler runs each of its ranks as a coroutine (a simx body process), which
// gives handlers a stack to block on; a registry of built-in actions only,
// such as Default(), runs its ranks stackless (see simx.Proc). The Handler
// that Lookup returns for a built-in action drives the action's steps from
// the calling rank's coroutine.
type Handler func(p *Proc, a trace.Action) error

// Registry binds action keywords to handlers, the analogue of
// MSG_action_register in the paper's prototype. A nil Registry in the replay
// configuration means Default().
type Registry struct {
	// byType holds the handler of each action type, so the per-action
	// Lookup on the replay hot path is an index, not a map hash.
	byType [trace.NumTypes]Handler
	// registered marks the action types bound by Register; a type bound by
	// Default runs its built-in steps directly.
	registered [trace.NumTypes]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Register binds keyword to handler, replacing any previous binding —
// ablation studies use this to swap collective implementations. The
// keyword is resolved like a trace keyword, so "ALLREDUCE" binds allReduce,
// and Keywords lists it under the action's own spelling. A keyword that
// names no action panics: its handler could never be dispatched, and the
// built-in would replay in its place.
func (r *Registry) Register(keyword string, h Handler) {
	t, ok := trace.TypeFromName(keyword)
	if !ok {
		panic(fmt.Sprintf("replay: Register(%q): no action has that keyword", keyword))
	}
	r.byType[t] = h
	r.registered[t] = true
}

// stackless reports whether no action type is bound by Register, so the
// registry's ranks need no stack.
func (r *Registry) stackless() bool {
	for _, reg := range r.registered {
		if reg {
			return false
		}
	}
	return true
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

// Keywords lists the keywords of the bound actions in sorted order.
func (r *Registry) Keywords() []string {
	var out []string
	for t, h := range r.byType {
		if h != nil {
			out = append(out, trace.ActionType(t).String())
		}
	}
	sort.Strings(out)
	return out
}

// Default returns a registry with the paper's semantics for every action of
// Table 1.
func Default() *Registry {
	r := NewRegistry()
	for t := trace.ActionType(0); t < trace.NumTypes; t++ {
		r.byType[t] = builtin(t)
	}
	return r
}
