package serve

import (
	"container/list"
	"context"
	"sync"
)

// resultCache holds completed sweep responses. Determinism makes them
// perfectly cacheable: a scenario's outcome is a pure function of
// (trace digest, canonical scenario spec), so a cached body can be served
// forever, byte-identical, with zero replay work.
//
// Two index layers serve two access patterns:
//
//   - byBody maps the SHA-256 of a raw request body to its response. A
//     repeated byte-identical request — the overwhelmingly common shape for
//     scripted clients — is answered from this map without even decoding
//     the JSON; the lookup path performs no allocation.
//   - byKey maps the canonical request key (digest + canonicalized grid
//     axes + options) to the same entries, so requests that differ only in
//     formatting, axis spelling or execution-only options (worker count,
//     replay sharing) still hit.
//
// Entries are evicted least-recently-used under a byte budget.
type resultCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	byKey  map[string]*respEntry
	byBody map[[32]byte]*respEntry
	lru    *list.List

	hits      int64 // canonical-layer hits
	bodyHits  int64 // byte-identical fast-path hits
	misses    int64
	evictions int64
}

// respEntry is one cached response body.
type respEntry struct {
	key      string
	body     []byte
	bodyKeys [][32]byte // raw-body hashes aliased to this entry
	elem     *list.Element
}

func newResultCache(budget int64) *resultCache {
	if budget <= 0 {
		budget = 256 << 20
	}
	return &resultCache{
		budget: budget,
		byKey:  make(map[string]*respEntry),
		byBody: make(map[[32]byte]*respEntry),
		lru:    list.New(),
	}
}

// lookupBody is the allocation-free fast path: it resolves a raw-body hash
// to its cached response, counting the hit and refreshing the LRU position.
// It returns nil on a miss WITHOUT counting it — the caller falls through
// to the canonical layer, which settles hit-or-miss accounting.
func (c *resultCache) lookupBody(h [32]byte) []byte {
	c.mu.Lock()
	e, ok := c.byBody[h]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.bodyHits++
	c.mu.Unlock()
	return e.body
}

// lookup resolves a canonical request key, aliasing the raw-body hash to
// the entry on a hit so the next identical body takes the fast path.
func (c *resultCache) lookup(key string, bodyHash [32]byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	c.aliasLocked(e, bodyHash)
	return e.body
}

// recheck is lookup without miss accounting: a flight that already counted
// its miss re-checks the key after winning the flight, and that second
// probe must not inflate the miss rate. Hits still count — they are real.
func (c *resultCache) recheck(key string, bodyHash [32]byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	c.aliasLocked(e, bodyHash)
	return e.body
}

// store inserts a completed response under both its canonical key and the
// raw-body hash that produced it.
func (c *resultCache) store(key string, bodyHash [32]byte, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		// A racing flight already stored this key (determinism guarantees
		// the bodies match); just alias the new body hash.
		c.lru.MoveToFront(e.elem)
		c.aliasLocked(e, bodyHash)
		return
	}
	e := &respEntry{key: key, body: body}
	e.elem = c.lru.PushFront(e)
	c.byKey[key] = e
	c.aliasLocked(e, bodyHash)
	c.bytes += int64(len(body))
	for c.bytes > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			return
		}
		v := tail.Value.(*respEntry)
		if v == e {
			return // never evict the entry just stored
		}
		c.lru.Remove(tail)
		delete(c.byKey, v.key)
		for _, bh := range v.bodyKeys {
			delete(c.byBody, bh)
		}
		c.bytes -= int64(len(v.body))
		c.evictions++
	}
}

// aliasLocked records bodyHash as a byte-identical spelling of e's request.
func (c *resultCache) aliasLocked(e *respEntry, bodyHash [32]byte) {
	if _, ok := c.byBody[bodyHash]; ok {
		return
	}
	c.byBody[bodyHash] = e
	e.bodyKeys = append(e.bodyKeys, bodyHash)
}

// resultCacheStats is the cache's /stats snapshot.
type resultCacheStats struct {
	Hits      int64 `json:"hits"`
	BodyHits  int64 `json:"body_hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Evictions int64 `json:"evictions"`
}

func (c *resultCache) stats() resultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return resultCacheStats{
		Hits: c.hits, BodyHits: c.bodyHits, Misses: c.misses,
		Entries: len(c.byKey), Bytes: c.bytes, Budget: c.budget, Evictions: c.evictions,
	}
}

// flight is one in-progress sweep execution, shared by every request that
// asked for the same canonical key while it ran. The first requester runs
// the sweep; the rest wait on done and read the outcome — request
// coalescing: N identical in-flight requests cost one kernel run.
//
// Each participant's own context is wired to the flight with
// context.AfterFunc: a participant that disconnects decrements the waiter
// count, and when the LAST participant is gone the flight's context is
// cancelled, stopping the sweep and releasing its trace reference. One
// impatient client never kills a run other clients still want.
type flight struct {
	done    chan struct{}
	status  int
	body    []byte
	cache   string // cache disposition of the runner ("miss")
	mu      sync.Mutex
	waiters int
	cancel  context.CancelFunc
	settled bool
}

// join registers one more participant. ok=false means the flight already
// settled (too late to join the waiter accounting; outcome is ready).
func (f *flight) join() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.settled {
		return false
	}
	f.waiters++
	return true
}

// leave drops one participant; the last one out cancels the flight.
func (f *flight) leave() {
	f.mu.Lock()
	last := false
	if !f.settled {
		f.waiters--
		last = f.waiters == 0
	}
	f.mu.Unlock()
	if last {
		f.cancel()
	}
}

// settle records the outcome and wakes every waiter.
func (f *flight) settle(status int, body []byte) {
	f.mu.Lock()
	f.settled = true
	f.status = status
	f.body = body
	f.mu.Unlock()
	close(f.done)
}

// flightGroup deduplicates concurrent executions by canonical key.
type flightGroup struct {
	mu        sync.Mutex
	inflight  map[string]*flight
	coalesced int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[string]*flight)}
}

// enter returns the flight for key, creating it when absent; runner reports
// whether the caller must execute it. A created flight's context descends
// from base (the daemon's lifetime), not from the creating request, so the
// run survives its initiator as long as any participant remains.
func (g *flightGroup) enter(base context.Context, key string) (f *flight, ctx context.Context, runner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.inflight[key]; ok {
		// join fails only when the flight already settled — its outcome is
		// ready behind the closed done channel, so reading it is free and
		// leave() on a settled flight is a no-op either way.
		f.join()
		g.coalesced++
		return f, nil, false
	}
	fctx, cancel := context.WithCancel(base)
	f = &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.inflight[key] = f
	return f, fctx, true
}

// exit removes the settled flight from the group.
func (g *flightGroup) exit(key string, f *flight) {
	g.mu.Lock()
	if g.inflight[key] == f {
		delete(g.inflight, key)
	}
	g.mu.Unlock()
	f.cancel() // release the context's resources; the run is over
}

func (g *flightGroup) stats() (inflight int, coalesced int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.inflight), g.coalesced
}
