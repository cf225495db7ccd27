package mac

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/obs"
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

	onWarm func(i int, js []int) // if set, sees every Warm call
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

func (f *fakeOracle) Warm(i int, js []int) {
	if f.onWarm != nil {
		f.onWarm(i, js)
	}
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

// TestBroadcastWarmsExactlyItsDeliveries is the MAC half of the
// LinkOracle.Warm contract, over the fake oracle: every broadcast
// completion whose sender has a neighbour warms once, before its first
// delivery, with exactly the receivers it then delivers to and in
// delivery order; a receiver the completion collided at is neither
// warmed nor delivered to, so a fan-out that collided everywhere warms
// an empty list. Unicast and jam completions warm nothing. The
// traffic is lawTraffic's mix — random broadcasts and unicasts, a jammer
// whose bursts overlap each other — and a quarter of the broadcast
// deliveries answer with a unicast sent from inside the handler, so
// sends run in the middle of a fan-out.
func TestBroadcastWarmsExactlyItsDeliveries(t *testing.T) {
	const n, jammer = 12, 2
	const horizon = 4 * time.Second
	rng := rand.New(rand.NewSource(11))
	f := newFakeOracle(n)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(10) < 3 {
				f.link(i, j, channel.ClassB)
				deg[i]++
				deg[j]++
			}
		}
	}
	k := sim.NewKernel()
	c := NewCommonChannel(k, f, rand.New(rand.NewSource(12)))
	reg := obs.NewRegistry()
	c.SetObs(reg)

	var (
		pending        []int // warmed receivers of the fan-out under way, not yet delivered to
		warmFrom       int
		warms, partial int
		broadcasts     int // honest broadcasts aired by a terminal with a neighbour
		unicasts       int
	)
	f.onWarm = func(i int, js []int) {
		if len(pending) > 0 {
			t.Fatalf("t=%v: Warm(%d, %v) while %v, warmed by %d's broadcast, still await delivery", k.Now(), i, js, pending, warmFrom)
		}
		pending, warmFrom = append(pending[:0], js...), i
		warms++
		if len(js) < deg[i] {
			partial++
		}
	}
	for j := 0; j < n; j++ {
		c.Register(j, func(pkt *packet.Packet, now time.Duration) {
			if pkt.To != packet.Broadcast {
				if len(pending) > 0 {
					t.Fatalf("t=%v: unicast %d→%d delivered while %v await %d's broadcast", now, pkt.From, j, pending, warmFrom)
				}
				unicasts++
				return
			}
			if len(pending) == 0 || pending[0] != j || pkt.From != warmFrom {
				t.Fatalf("t=%v: broadcast from %d delivered to %d; warmed and undelivered: %v from %d", now, pkt.From, j, pending, warmFrom)
			}
			pending = pending[1:]
			if rng.Intn(4) == 0 {
				c.Send(ctrlPkt(packet.TypeRREP, j, pkt.From))
			}
		})
	}
	c.OnTransmit = func(pkt *packet.Packet, from int, _ time.Duration) {
		if pkt.To == packet.Broadcast && deg[from] > 0 {
			broadcasts++
		}
	}
	for i := 0; i < 1500; i++ {
		from := rng.Intn(n)
		to := packet.Broadcast
		if rng.Intn(3) == 0 {
			to = rng.Intn(n)
		}
		k.At(time.Duration(rng.Int63n(int64(horizon))), func(time.Duration) {
			c.Send(ctrlPkt(packet.TypeRREQ, from, to))
		})
	}
	for at := horizon / 10; at < horizon*9/10; at += 1500 * time.Microsecond {
		k.At(at, func(time.Duration) { c.Jam(jamPkt(jammer, 128)) })
	}
	k.Run(horizon + time.Second)

	if len(pending) > 0 {
		t.Fatalf("receivers %v of %d's broadcast were warmed and never delivered to", pending, warmFrom)
	}
	if warms != broadcasts {
		t.Errorf("%d warms for %d completed broadcasts from terminals with a neighbour, want one each", warms, broadcasts)
	}
	if partial < 50 || unicasts < 100 || reg.Snapshot().MACCollisions < 100 {
		t.Errorf("%d partly collided fan-outs, %d unicast deliveries, %d collisions: the traffic no longer exercises the law",
			partial, unicasts, reg.Snapshot().MACCollisions)
	}
	t.Logf("%d warms (%d partly collided), %d unicast deliveries, %d collisions", warms, partial, unicasts, reg.Snapshot().MACCollisions)
}
