package serve

import (
	"container/list"
	"sync"

	"tireplay/internal/sweep"
)

// TraceStore is the daemon's content-addressed trace store: TraceSets keyed
// by the SHA-256 digest of their per-rank files, refcounted by the sweeps
// replaying them and evicted least-recently-used under a byte budget. The
// budget counts upload bytes. Every rank is held as one binary image: an
// uploaded or path-registered text or gzip trace is encoded into memory at
// about half its text size, and a .tib file stays memory-mapped.
//
// Eviction and refcounting compose carefully: evicting an entry removes it
// from the index (no new Acquire can find it) but its TraceSet is unmapped
// only when the last live reader releases it — an in-flight sweep never has
// the pages pulled out from under its cursors. The most recently used entry
// is never evicted, so a store whose budget is smaller than one trace still
// serves that trace.
type TraceStore struct {
	mu     sync.Mutex
	budget int64
	bytes  int64 // summed size of indexed entries
	byDig  map[string]*traceEntry
	lru    *list.List // front = most recently used

	evictions   int64
	liveEvicted int64 // evicted entries kept mapped by live readers
	zombieBytes int64 // their summed size
}

// traceEntry is one stored trace set.
type traceEntry struct {
	digest  string
	ts      *sweep.TraceSet
	ranks   int
	bytes   int64
	refs    int
	evicted bool
	elem    *list.Element
}

// TraceInfo describes a stored trace set.
type TraceInfo struct {
	Digest string `json:"digest"`
	Ranks  int    `json:"ranks"`
	Bytes  int64  `json:"bytes"`
	Refs   int    `json:"refs"`
}

// NewTraceStore returns an empty store with the given byte budget
// (<= 0: a 1 GiB default).
func NewTraceStore(budget int64) *TraceStore {
	if budget <= 0 {
		budget = 1 << 30
	}
	return &TraceStore{budget: budget, byDig: make(map[string]*traceEntry), lru: list.New()}
}

// Add registers a loaded trace set under its digest. When the digest is
// already stored, the existing entry is refreshed and kept — the caller's ts
// is NOT adopted and remains the caller's to close — and existed reports the
// dedup. Adding may evict colder entries to fit the budget.
func (s *TraceStore) Add(digest string, ts *sweep.TraceSet, bytes int64) (existed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byDig[digest]; ok {
		s.lru.MoveToFront(e.elem)
		return true
	}
	e := &traceEntry{digest: digest, ts: ts, ranks: ts.Ranks(), bytes: bytes}
	e.elem = s.lru.PushFront(e)
	s.byDig[digest] = e
	s.bytes += bytes
	s.evictOverBudgetLocked(e)
	return false
}

// evictOverBudgetLocked walks the LRU tail evicting entries until the store
// fits its budget, never touching keep (the entry just added or acquired).
// Evicted entries with live readers stay mapped until their last Release.
func (s *TraceStore) evictOverBudgetLocked(keep *traceEntry) {
	for s.bytes > s.budget {
		tail := s.lru.Back()
		if tail == nil {
			return
		}
		e := tail.Value.(*traceEntry)
		if e == keep {
			return // everything colder is gone; the budget is just too small
		}
		s.lru.Remove(tail)
		delete(s.byDig, e.digest)
		s.bytes -= e.bytes
		s.evictions++
		e.evicted = true
		if e.refs > 0 {
			s.liveEvicted++
			s.zombieBytes += e.bytes
		} else {
			e.ts.Close()
		}
	}
}

// Touch reports whether digest is stored, refreshing its LRU position — the
// dedup check of the upload path, taken before parsing anything.
func (s *TraceStore) Touch(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byDig[digest]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	return ok
}

// Ranks reports the rank count of a stored trace set, refreshing its LRU
// position.
func (s *TraceStore) Ranks(digest string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byDig[digest]
	if !ok {
		return 0, false
	}
	s.lru.MoveToFront(e.elem)
	return e.ranks, true
}

// Acquire takes a read reference on the stored trace set. Every Acquire
// must be paired with exactly one Handle.Release; the set stays mapped
// until then even if it is evicted meanwhile.
func (s *TraceStore) Acquire(digest string) (*TraceHandle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byDig[digest]
	if !ok {
		return nil, false
	}
	e.refs++
	s.lru.MoveToFront(e.elem)
	return &TraceHandle{store: s, entry: e}, true
}

// TraceHandle is one live read reference on a stored trace set.
type TraceHandle struct {
	store *TraceStore
	entry *traceEntry
	once  sync.Once
}

// Set returns the referenced trace set; valid until Release.
func (h *TraceHandle) Set() *sweep.TraceSet { return h.entry.ts }

// Release drops the reference; idempotent. The last release of an evicted
// entry unmaps the set.
func (h *TraceHandle) Release() {
	h.once.Do(func() {
		s := h.store
		s.mu.Lock()
		defer s.mu.Unlock()
		h.entry.refs--
		if h.entry.evicted && h.entry.refs == 0 {
			s.liveEvicted--
			s.zombieBytes -= h.entry.bytes
			h.entry.ts.Close()
		}
	})
}

// List returns the indexed entries, most recently used first.
func (s *TraceStore) List() []TraceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceInfo, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*traceEntry)
		out = append(out, TraceInfo{Digest: e.digest, Ranks: e.ranks, Bytes: e.bytes, Refs: e.refs})
	}
	return out
}

// TraceStoreStats is the store's /stats snapshot.
type TraceStoreStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Budget      int64 `json:"budget"`
	Evictions   int64 `json:"evictions"`
	LiveEvicted int64 `json:"live_evicted"`
	ZombieBytes int64 `json:"zombie_bytes"`
}

// Stats snapshots the store counters.
func (s *TraceStore) Stats() TraceStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TraceStoreStats{
		Entries: len(s.byDig), Bytes: s.bytes, Budget: s.budget,
		Evictions: s.evictions, LiveEvicted: s.liveEvicted, ZombieBytes: s.zombieBytes,
	}
}

// Close evicts everything; sets held by live readers are unmapped on their
// last Release as usual.
func (s *TraceStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*traceEntry)
		delete(s.byDig, e.digest)
		s.bytes -= e.bytes
		e.evicted = true
		if e.refs > 0 {
			s.liveEvicted++
			s.zombieBytes += e.bytes
		} else {
			e.ts.Close()
		}
	}
	s.lru.Init()
}
