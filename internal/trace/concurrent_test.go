package trace

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadersWhileAppending hammers the ring from one appender
// (the simulation goroutine's role) while several readers poll Total and
// Events (the live surfaces' role). Under -race this is the proof that
// the ring is safe to watch mid-run; unconditionally it checks that
// every snapshot a reader sees is internally consistent — chronological
// and no larger than the capacity.
func TestConcurrentReadersWhileAppending(t *testing.T) {
	const capacity = 64
	r := NewRecorder(capacity)
	stop := make(chan struct{})
	// filled closes once the ring is full: the readers can finish before
	// the appender has been scheduled long enough to fill it.
	filled := make(chan struct{})

	var appender sync.WaitGroup
	appender.Add(1)
	go func() {
		defer appender.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Record(Event{At: time.Duration(i), Kind: KindGenerated, PacketID: uint64(i)})
			if i == capacity-1 {
				close(filled)
			}
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastTotal uint64
			for i := 0; i < 2000; i++ {
				total := r.Total()
				if total < lastTotal {
					t.Errorf("Total went backwards: %d after %d", total, lastTotal)
					return
				}
				lastTotal = total
				evs := r.Events()
				if len(evs) > capacity {
					t.Errorf("Events returned %d > capacity %d", len(evs), capacity)
					return
				}
				for j := 1; j < len(evs); j++ {
					if evs[j].At < evs[j-1].At {
						t.Errorf("Events out of order at %d: %v after %v", j, evs[j].At, evs[j-1].At)
						return
					}
				}
			}
		}()
	}

	readers.Wait()
	<-filled
	close(stop)
	appender.Wait()

	if r.Total() == 0 {
		t.Fatal("appender recorded nothing")
	}
	if got := len(r.Events()); got != capacity {
		t.Fatalf("retained %d events, want full ring of %d", got, capacity)
	}
}
