package main

import (
	"container/heap"
	"sync"
	"time"
)

// refNominal is the reference loop's median host time over 321 runs
// on the shared 2-vCPU Intel Xeon host the bounds in BENCHMARK.json
// were set on. Host times are reported as if every run had met the
// host at that speed.
const refNominal = 145 * time.Millisecond

// refProcs and refSteps size the reference loop.
const refProcs, refSteps = 128, 150000

// refLoop is the benchmark's yardstick of host speed. On a shared host
// the speed of a vCPU swings by a quarter for minutes at a time, as
// other tenants come and go, and that swing would otherwise set the
// spread of every host time. The loop is a fixed miniature of the
// simulator kernel's hot path: a binary heap of pending events, and
// for each event a goroutine handoff to the proc it wakes and back. It
// allocates nothing while timed, so the garbage a run leaves cannot
// slow it, and it uses nothing from the simulator, so a change to the
// program cannot change its time. It returns its host time.
func refLoop() time.Duration {
	wake := make([]chan int64, refProcs)
	back := make(chan int64)
	var wg sync.WaitGroup
	for i := range wake {
		wake[i] = make(chan int64)
		wg.Add(1)
		go func(c <-chan int64, x int64) {
			defer wg.Done()
			for at := range c {
				x = x*6364136223846793005 + 1442695040888963407
				back <- at + 1 + (x>>40)&1023
			}
		}(wake[i], int64(i))
	}
	evs := make([]refEvent, refProcs)
	h := make(refHeap, 0, refProcs)
	for i := range evs {
		evs[i] = refEvent{at: int64(i), proc: i}
		heap.Push(&h, &evs[i])
	}

	t0 := time.Now()
	for s := 0; s < refSteps; s++ {
		e := heap.Pop(&h).(*refEvent)
		wake[e.proc] <- e.at
		e.at = <-back
		heap.Push(&h, e)
	}
	d := time.Since(t0)

	for _, c := range wake {
		close(c)
	}
	wg.Wait()
	return d
}

// refEvent is one pending wake-up in the reference loop.
type refEvent struct {
	at   int64
	proc int
}

// refHeap orders pending wake-ups by time.
type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
