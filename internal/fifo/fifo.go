// Package fifo provides the pop-by-head FIFO queue used on the simulation
// hot paths (mailbox rendezvous queues, the kernel run queue, the replay
// tool's pending-request list). Popping advances a head index instead of
// re-slicing; a drained queue rewinds to the front of its capacity and a
// queue whose dead prefix dominates is compacted in place — so steady-state
// push/pop cycles never allocate, and memory stays proportional to the
// largest backlog rather than to the total traffic.
package fifo

// Queue is a FIFO of T. The zero value is ready to use.
type Queue[T any] struct {
	q    []T
	head int
}

// Len reports the number of queued elements.
func (f *Queue[T]) Len() int { return len(f.q) - f.head }

// Empty reports whether the queue holds no elements.
func (f *Queue[T]) Empty() bool { return f.head == len(f.q) }

// Push appends v.
func (f *Queue[T]) Push(v T) { f.q = append(f.q, v) }

// Pop removes and returns the oldest element. It panics on an empty queue
// (callers check Empty first).
func (f *Queue[T]) Pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.q):
		// Drained: rewind over the full capacity.
		f.q = f.q[:0]
		f.head = 0
	case f.head >= 32 && f.head*2 >= len(f.q):
		// The dead prefix dominates a persistent backlog: slide the live
		// tail to the front so memory stays O(backlog), not O(history).
		// Each element moves at most once per two pops, so Pop stays
		// amortised O(1).
		n := copy(f.q, f.q[f.head:])
		clearTail := f.q[n:]
		for i := range clearTail {
			clearTail[i] = zero
		}
		f.q = f.q[:n]
		f.head = 0
	}
	return v
}
