package world_test

import (
	"runtime"
	"testing"
	"time"

	"rica/internal/protocol"
	"rica/internal/scenario"
	"rica/internal/world"
)

// liveHeapWorld is the last world BenchmarkLiveHeap ran, still reachable
// when the benchmark returns, so a heap profile written after it shows
// what that world keeps.
var liveHeapWorld *world.World

// BenchmarkLiveHeap measures what a run keeps: metro-500 × RICA, seed 1,
// run to 10 s and not finished. With the world still reachable it
// collects twice — the first collection moves the stream-vector pool to
// its victim cache, the second drops it, so what is counted is what the
// world holds, not vectors waiting to be reused — and reports the live
// heap (live-MB, from HeapAlloc) and how many 607-word vectors the
// world's streams hold (vectors). The heap ledger behind it:
//
//	go test -run '^$' -bench LiveHeap -benchtime 1x -memprofile mem.out ./internal/world
//	go tool pprof -sample_index inuse_space -top mem.out
func BenchmarkLiveHeap(b *testing.B) {
	const horizon = 10 * time.Second
	spec, err := scenario.ByName("metro-500")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 1
	cfg.Duration = horizon
	for i := 0; i < b.N; i++ {
		liveHeapWorld = nil // one world live at a time
		w := world.New(cfg, protocol.Factory(protocol.RICA, spec.Traffic.Rate))
		w.Start()
		w.RunTo(horizon)
		liveHeapWorld = w
	}
	b.StopTimer()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MB")
	b.ReportMetric(float64(liveHeapWorld.Streams.Held()), "vectors")
}
