package mac

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/packet"
	"rica/internal/sim"
)

// fakeOracle is a hand-scripted LinkOracle: adjacency is whatever the
// test says, with no geometry behind it. It proves the MAC layer
// consumes only the seam — deliveries follow the oracle's answers even
// where no positional model could produce them.
type fakeOracle struct {
	n   int
	adj map[[2]int]channel.Class // unordered pair → class; absent = no link
}

func newFakeOracle(n int) *fakeOracle {
	return &fakeOracle{n: n, adj: make(map[[2]int]channel.Class)}
}

func (f *fakeOracle) link(i, j int, c channel.Class) {
	if i > j {
		i, j = j, i
	}
	f.adj[[2]int{i, j}] = c
}

func (f *fakeOracle) N() int { return f.n }

func (f *fakeOracle) Class(i, j int, at time.Duration) channel.Class {
	if i > j {
		i, j = j, i
	}
	if c, ok := f.adj[[2]int{i, j}]; ok {
		return c
	}
	return channel.ClassNone
}

func (f *fakeOracle) InRange(i, j int, at time.Duration) bool {
	return f.Class(i, j, at).Usable()
}

// Interferers is allowed to be conservative; a geometry-free fake keeps
// every terminal and lets InRange decide.
func (f *fakeOracle) Interferers(i int, at time.Duration, dst []int) []int {
	for j := 0; j < f.n; j++ {
		dst = append(dst, j)
	}
	return dst
}

func (f *fakeOracle) Neighbors(i int, at time.Duration, dst []int) []int {
	from := len(dst)
	for j := 0; j < f.n; j++ {
		if j != i && f.InRange(i, j, at) {
			dst = append(dst, j)
		}
	}
	sort.Ints(dst[from:])
	return dst
}

// TestCommonChannelAgainstFakeOracle: broadcast delivery is exactly the
// fake's neighbour set, unicast follows its InRange answer, all without
// any channel.Model in sight.
func TestCommonChannelAgainstFakeOracle(t *testing.T) {
	k := sim.NewKernel()
	f := newFakeOracle(5)
	f.link(0, 2, channel.ClassA)
	f.link(0, 4, channel.ClassD)
	f.link(1, 3, channel.ClassB) // unrelated to sender 0

	c := NewCommonChannel(k, f, rand.New(rand.NewSource(1)))
	got := make(map[int]int)
	for i := 0; i < 5; i++ {
		i := i
		c.Register(i, func(*packet.Packet, time.Duration) { got[i]++ })
	}

	c.Send(ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast))
	k.Run(time.Second)
	for i, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 0, 4: 1} {
		if got[i] != want {
			t.Fatalf("broadcast deliveries = %v, want exactly the oracle's neighbours {2, 4}", got)
		}
	}

	c.Send(ctrlPkt(packet.TypeRREP, 1, 3))
	c.Send(ctrlPkt(packet.TypeRREP, 1, 4)) // no link 1–4: must vanish
	k.Run(2 * time.Second)
	if got[3] != 1 {
		t.Fatalf("unicast to linked target delivered %d times, want 1", got[3])
	}
	if got[4] != 1 {
		t.Fatalf("unicast without a link reached its target: %v", got)
	}
}

// TestDataPlaneAgainstFakeOracle: the per-link server paces delivery by
// the oracle's class and fails sends the oracle denies.
func TestDataPlaneAgainstFakeOracle(t *testing.T) {
	k := sim.NewKernel()
	f := newFakeOracle(3)
	f.link(0, 1, channel.ClassA)

	d := NewDataPlane(k, f)
	delivered := 0
	d.Register(1, func(*packet.Packet, time.Duration) { delivered++ })
	d.Register(2, func(*packet.Packet, time.Duration) { t.Error("unlinked terminal took delivery") })

	var results []SendResult
	pkt := &packet.Packet{Type: packet.TypeData, From: 0, To: 1, Size: 512}
	d.Send(0, 1, pkt, func(r SendResult) { results = append(results, r) })
	d.Send(0, 2, pkt.Clone(), func(r SendResult) { results = append(results, r) })
	k.RunAll()

	if delivered != 1 {
		t.Fatalf("linked send delivered %d times, want 1", delivered)
	}
	if len(results) != 2 {
		t.Fatalf("got %d send results, want 2", len(results))
	}
	var ok, fail *SendResult
	for i := range results {
		if results[i].OK {
			ok = &results[i]
		} else {
			fail = &results[i]
		}
	}
	if ok == nil || ok.Class != channel.ClassA {
		t.Fatalf("linked send result = %+v, want OK at class A", results)
	}
	if fail == nil || fail.Class != channel.ClassNone {
		t.Fatalf("unlinked send result = %+v, want failure with no class", results)
	}
}
