// Package eventq implements the time-ordered event queue at the heart of the
// discrete-event simulation kernel. It is a binary min-heap keyed on the
// event's due time with FIFO tie-breaking, so that events scheduled for the
// same instant fire in scheduling order — a property the replay tool relies
// on for deterministic simulations.
package eventq

// Event is an entry in the queue: a payload due at a simulated time.
type Event struct {
	Time    float64 // due time in simulated seconds
	Payload any     // caller-defined; the kernel stores *activity values

	seq int // insertion sequence number, breaks Time ties FIFO
	pos int // current heap index, -1 once popped or removed
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	heap []*Event
	seq  int
	free []*Event // recycled events reused by Push
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules payload at time t and returns the event handle, which can
// later be passed to Remove for cancellation. Events previously returned to
// the queue with Recycle are reused, so steady-state push/pop cycles perform
// no heap allocation.
func (q *Queue) Push(t float64, payload any) *Event {
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		ev = new(Event)
	}
	ev.Time = t
	ev.Payload = payload
	ev.seq = q.seq
	ev.pos = len(q.heap)
	q.seq++
	q.heap = append(q.heap, ev)
	q.up(len(q.heap) - 1)
	return ev
}

// Peek returns the earliest event without removing it, or nil when empty.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Pop removes and returns the earliest event, or nil when empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[0].pos = 0
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if len(q.heap) > 0 {
		q.down(0)
	}
	top.pos = -1
	return top
}

// Update moves a pending event to the new due time t in place, sifting it
// through the heap in O(log n) without releasing the handle — cheaper than a
// Remove/Recycle/Push cycle because the event keeps its slot, and the kernel
// reschedules completion events on every bandwidth reshare. The event is
// re-sequenced as if freshly pushed, so ties at the same due time fire in
// reschedule order — exactly the Remove+Push semantics, minus the free-list
// round-trip. It returns false (and does nothing) if the event has already
// fired or been removed.
func (q *Queue) Update(ev *Event, t float64) bool {
	if ev == nil || ev.pos < 0 || ev.pos >= len(q.heap) || q.heap[ev.pos] != ev {
		return false
	}
	ev.Time = t
	ev.seq = q.seq
	q.seq++
	q.down(ev.pos)
	q.up(ev.pos)
	return true
}

// Remove cancels a previously pushed event in O(log n) using the event's
// heap index — the kernel reschedules every active flow's completion on
// each bandwidth reshare, so this is a hot path. It is a no-op if the event
// has already fired or been removed.
func (q *Queue) Remove(ev *Event) bool {
	if ev == nil || ev.pos < 0 || ev.pos >= len(q.heap) || q.heap[ev.pos] != ev {
		return false
	}
	q.removeAt(ev.pos)
	ev.pos = -1
	return true
}

// Each calls fn for every pending event, in heap order. The order is
// deterministic for a given operation history but otherwise unspecified;
// callers needing time order must sort. fn must not push, remove or update
// events — collect first, mutate after. The kernel's fault injector uses it
// to find every live activity touching a failed resource (each one owns
// exactly one pending completion event).
func (q *Queue) Each(fn func(*Event)) {
	for _, ev := range q.heap {
		fn(ev)
	}
}

// Recycle returns a fired or removed event to the queue's free list for
// reuse by a later Push. The handle must not be used afterwards. Recycling
// an event still pending in the queue is a no-op (the queue owns it).
func (q *Queue) Recycle(ev *Event) {
	if ev == nil || ev.pos >= 0 {
		return
	}
	ev.Payload = nil
	q.free = append(q.free, ev)
}

func (q *Queue) removeAt(i int) {
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
		q.heap[i].pos = i
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < len(q.heap) {
		q.down(i)
		q.up(i)
	}
}

// less orders by time, then by insertion sequence for same-time FIFO.
func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// swap exchanges two heap slots, keeping the position index coherent.
func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
}
