package main

import (
	"container/heap"
	"strings"
	"sync"
	"time"
)

// referenceCalibration is how long calibrate takes on the reference box
// (2 vCPUs, Intel Xeon at 2.0 GHz, Go 1.24) when nothing else loads it.
const referenceCalibration = 0.5

// Shared virtual machines drift in speed as other tenants come and go: on
// the reference box raw times of the same code spread by up to a third
// across runs a few minutes apart. Every time and rate the benchmark
// reports is therefore scaled to the reference speed: a raw time t
// measured while calibrate took c seconds is reported as
// t * referenceCalibration / c, a rate r as r * c / referenceCalibration.
// The calibration is the benchmark's own code, so no change to the
// measured programs can move it.

// calibrate times a fixed amount of simulator-like work that does not
// depend on this repository's code: two goroutines each run a small
// discrete-event loop (a binary-heap event queue with allocation per
// event), then hand a token around a ring of goroutines, as the
// simulation kernel hands control between its process goroutines.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	acc := make([]float64, workers)
	for g := range acc {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc[g] = eventLoop(uint64(g+1), 4096, 500000) + float64(handoffRing(64, 5000))
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	for _, a := range acc {
		sink += a
	}
	return d
}

// handoffRing passes a token laps times around a ring of n goroutines and
// returns the token's final value.
func handoffRing(n, laps int) int {
	ch := make([]chan int, n)
	for i := range ch {
		ch[i] = make(chan int)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(in, out chan int) {
			defer wg.Done()
			for l := 0; l < laps; l++ {
				out <- 1 + <-in
			}
		}(ch[i], ch[(i+1)%n])
	}
	v := 0
	for l := 0; l < laps; l++ {
		ch[1] <- v
		v = <-ch[0]
	}
	wg.Wait()
	return v
}

// atReference scales a raw value of the given unit to the reference speed,
// given the median calibration of the run that measured it. Times shrink
// and rates grow when the box was slower than the reference; counts,
// sizes and ratios do not depend on speed.
func atReference(v float64, unit string, cal float64) float64 {
	switch {
	case unit == "s" || unit == "ms" || unit == "us" || unit == "ns":
		return v * referenceCalibration / cal
	case strings.HasSuffix(unit, "/s"):
		return v * cal / referenceCalibration
	}
	return v
}

// sink keeps the compiler from dropping the calibration work.
var sink float64

type event struct {
	at   float64
	rank int
	vol  []float64
}

type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func eventLoop(seed uint64, ranks, steps int) float64 {
	r := &rng{s: seed}
	q := make(eventQueue, 0, ranks)
	for i := 0; i < ranks; i++ {
		q = append(q, &event{at: r.float(), rank: i})
	}
	heap.Init(&q)
	clock := make([]float64, ranks)
	var acc float64
	for s := 0; s < steps; s++ {
		e := heap.Pop(&q).(*event)
		clock[e.rank] = e.at
		acc += e.at - clock[(e.rank+1)%ranks]
		heap.Push(&q, &event{at: e.at + r.float(), rank: int(r.next() % uint64(ranks)),
			vol: make([]float64, 1+s%8)})
	}
	return acc
}
