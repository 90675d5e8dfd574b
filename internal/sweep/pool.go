package sweep

import (
	"runtime"
	"sync"

	"tireplay/internal/fifo"
)

// Engine is a resident worker pool executing sweep tasks. A one-shot sweep
// creates and closes one per call (the package-level Run does exactly that),
// but the pool is designed to outlive a single sweep: a long-running service
// holds one Engine and streams every request's scenarios through it, so
// worker goroutines are started once per process rather than once per
// request, and concurrent sweeps share one global parallelism bound instead
// of multiplying their worker counts.
//
// Engine.Run is safe for concurrent use: each call owns all of its per-sweep
// state, and tasks from concurrent sweeps interleave FIFO on the shared
// queue. Close must only be called once every Run call has returned.
type Engine struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  fifo.Queue[func()]
	closed bool
	wg     sync.WaitGroup
}

// NewEngine starts a pool of the given width; workers <= 0 means
// runtime.GOMAXPROCS(0).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Workers returns the pool width.
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for e.queue.Empty() && !e.closed {
			e.cond.Wait()
		}
		if e.queue.Empty() {
			e.mu.Unlock()
			return
		}
		fn := e.queue.Pop()
		e.mu.Unlock()
		fn()
	}
}

// submit enqueues fn. The queue is unbounded, so a sweep enqueues all of
// its groups at once and never waits for a worker to free up; concurrent
// sweeps interleave their tasks in submission order.
func (e *Engine) submit(fn func()) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		panic("sweep: submit on closed Engine")
	}
	e.queue.Push(fn)
	e.cond.Signal()
	e.mu.Unlock()
}

// Close stops the pool: already-queued tasks still run, then the workers
// exit. It is idempotent and must not race an in-flight Run (cancel the
// Run's context and wait for it to return first).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}
