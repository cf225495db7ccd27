package main

import (
	"container/heap"
	"math/rand"
	"time"
)

// The box this benchmark runs on is a shared two-vCPU virtual machine
// whose speed drifts by a quarter for minutes at a time (BASELINE.md has
// the readings): a raw time taken in a slow phase and one taken in a
// quiet phase differ by more than any bound worth fixing. So the harness
// times a fixed loop of its own just before every operation and reports
// the operation's times at reference speed: multiplied by refChunk ÷ the
// loop's median chunk. The loop is harness code — nothing the program under
// test does can move it — so a regression shows in full, while drift of
// the box, which slows the loop and the operation alike, divides out.
// The loop runs before and after each operation and the factor goes by
// both readings, since the box's speed also changes within seconds. The
// raw median and the speed factor are printed beside the metrics.

// refChunk is how long one chunk of hostLoop takes on the reference box
// when it is quiet, so that a quiet run there reads the same raw and at
// reference speed.
const refChunk = 30 * time.Millisecond

// loopChunks is how many chunks one hostLoop times.
const loopChunks = 5

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(v any)        { *h = append(*h, v.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// hostLoop does a fixed amount of the kind of work the simulator does —
// a priority queue fed from a seeded generator, with boxing and
// interface calls on the way — in loopChunks equal chunks, and returns
// how long each took.
func hostLoop() (chunks [loopChunks]time.Duration) {
	for c := range chunks {
		start := time.Now()
		rng := rand.New(rand.NewSource(1))
		var q floatHeap
		for i := 0; i < 100_000; i++ {
			heap.Push(&q, rng.Float64())
			if i%3 == 2 {
				heap.Pop(&q)
			}
		}
		for q.Len() > 0 {
			heap.Pop(&q)
		}
		chunks[c] = time.Since(start)
	}
	return chunks
}

// hostSpeed is the factor that takes a time measured between two runs of
// the loop to reference speed: 1 on the quiet reference box, below 1
// when the box is slow. It goes by the median chunk, so a stall that
// hits one chunk (a flush, a descheduling) does not pass for a slow box.
func hostSpeed(before, after [loopChunks]time.Duration) float64 {
	all := make([]float64, 0, 2*loopChunks)
	for i := range before {
		all = append(all, float64(before[i]), float64(after[i]))
	}
	_, median, _ := quartiles(all)
	return float64(refChunk) / median
}
