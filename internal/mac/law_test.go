package mac

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/geom"
	"rica/internal/mobility"
	"rica/internal/packet"
	"rica/internal/sim"
)

// refSenseBusy is carrier sense by definition, the pairwise scan the air
// stamps replaced: some transmission still on air is from's own, or comes
// from a terminal from can hear.
func refSenseBusy(c *CommonChannel, from int, now time.Duration) bool {
	for _, tx := range c.active {
		if tx.end > now && (tx.from == from || c.model.InRange(tx.from, from, now)) {
			return true
		}
	}
	return false
}

// refOverlaps is the overlap set with no spatial filter at all: every
// transmission whose airtime window strictly intersects tx's. Whatever a
// filter drops from it must be unable to reach any receiver of tx.
func refOverlaps(c *CommonChannel, tx *transmission) []*transmission {
	var out []*transmission
	for _, other := range c.active {
		if other != tx && other.start < tx.end && other.end > tx.start {
			out = append(out, other)
		}
	}
	return out
}

// lawChecker compares the channel's bookkeeping against the reference
// scans at one instant. It runs as a kernel event, so the channel is in a
// state the real completions and attempts see.
type lawChecker struct {
	t      *testing.T
	c      *CommonChannel
	exact  bool // the oracle's Interferers keeps everyone: overlap sets must be equal
	probes int
	tested int // completions whose overlap set was non-empty
}

func (l *lawChecker) check(now time.Duration) {
	t, c := l.t, l.c
	l.probes++

	// The air stamps are a function of the captured active list for every
	// value that can still matter (an end in the future is never pruned),
	// which is why ExportState has no field for them.
	n := c.model.N()
	until := make([]time.Duration, n)
	var air time.Duration
	for _, tx := range c.active {
		until[tx.from] = max(until[tx.from], tx.end)
		air = max(air, tx.end)
	}
	for v := 0; v < n; v++ {
		if max(until[v], now) != max(c.txUntil[v], now) {
			t.Fatalf("t=%v: txUntil[%d] = %v, the active list says %v", now, v, c.txUntil[v], until[v])
		}
	}
	if max(air, now) != max(c.airUntil, now) {
		t.Fatalf("t=%v: airUntil = %v, the active list says %v", now, c.airUntil, air)
	}

	for v := 0; v < n; v++ {
		if got, want := c.senseBusy(v, now), refSenseBusy(c, v, now); got != want {
			t.Fatalf("t=%v: senseBusy(%d) = %v, the pairwise scan says %v", now, v, got, want)
		}
	}

	for _, tx := range c.active {
		if tx.end != now || tx.pkt == nil {
			continue // not completing at this instant
		}
		all := refOverlaps(c, tx)
		c.overlaps(tx, now)
		kept := make(map[*transmission]bool, len(c.obuf))
		for _, o := range c.obuf {
			kept[o] = true
		}
		if len(kept) != len(c.obuf) {
			t.Fatalf("t=%v: overlaps(%d) lists a transmission twice", now, tx.from)
		}
		inAll := make(map[*transmission]bool, len(all))
		for _, o := range all {
			inAll[o] = true
		}
		for o := range kept {
			if !inAll[o] {
				t.Fatalf("t=%v: overlaps(%d) keeps a transmission by %d that does not overlap in time", now, tx.from, o.from)
			}
		}
		if l.exact && len(kept) != len(all) {
			t.Fatalf("t=%v: overlaps(%d) keeps %d of %d temporal overlaps under an oracle that filters nothing", now, tx.from, len(kept), len(all))
		}
		if len(all) > 0 {
			l.tested++
		}
		// The verdict that matters: each receiver collides exactly when the
		// unfiltered set says so, on both collision paths.
		recv := c.model.Neighbors(tx.from, now, nil)
		pairwise := make([]bool, len(recv))
		for k, j := range recv {
			pairwise[k] = c.collidedAt(j, now)
		}
		c.markCollided(now)
		for k, j := range recv {
			want := false
			for _, o := range all {
				if o.from == j || c.model.InRange(o.from, j, now) {
					want = true
					break
				}
			}
			if stamped := c.colStamp[j] == c.colEpoch; pairwise[k] != want || stamped != want {
				t.Fatalf("t=%v: receiver %d of %d: collidedAt %v, markCollided %v, every temporal overlap probed pairwise %v",
					now, j, tx.from, pairwise[k], stamped, want)
			}
		}
	}
}

// lawTraffic puts a randomised population on air over horizon: honest
// broadcasts and unicasts from random terminals (so carrier sense, backoff
// and retries all run), and a jammer whose bursts outlast their spacing,
// so each overlaps its own predecessor — and which also sends honestly.
// Every transmission's completion instant gets a check just before the
// completion itself runs, plus checks at random instants in between.
func lawTraffic(k *sim.Kernel, l *lawChecker, rng *rand.Rand, jammer int, horizon time.Duration) {
	c, n := l.c, l.c.model.N()
	for i := 0; i < n; i++ {
		c.Register(i, func(*packet.Packet, time.Duration) {})
	}
	// OnTransmit runs before the channel schedules the completion, so the
	// check it schedules for the same instant is dispatched first.
	c.OnTransmit = func(pkt *packet.Packet, _ int, _ time.Duration) {
		k.Schedule(airtime(pkt.Size), l.check)
	}
	for i := 0; i < 1500; i++ {
		from := rng.Intn(n)
		if i%10 == 0 {
			from = jammer
		}
		to := packet.Broadcast
		if rng.Intn(3) == 0 {
			to = rng.Intn(n)
		}
		k.At(time.Duration(rng.Int63n(int64(horizon))), func(time.Duration) {
			c.Send(ctrlPkt(packet.TypeRREQ, from, to))
		})
	}
	const burst = 128 // 4.1 ms on air, fired every 1.5 ms
	for at := horizon / 10; at < horizon*9/10; at += 1500 * time.Microsecond {
		k.At(at, func(time.Duration) {
			k.Schedule(airtime(burst), l.check)
			c.Jam(jamPkt(jammer, burst))
		})
	}
	for i := 0; i < 500; i++ {
		k.At(time.Duration(rng.Int63n(int64(horizon))), l.check)
	}
	k.Run(horizon + time.Second)
}

// TestAirStampsAndOverlapFilterEqualTheScans is the law behind the common
// channel's bookkeeping: carrier sense read off per-terminal air stamps,
// and the overlap set filtered through one stamped interferer list, give
// the verdicts of the field-wide pairwise scans they replaced — over a
// moving field with a terminal that is down for good, one that fails and
// heals mid-run, and a self-overlapping jammer.
func TestAirStampsAndOverlapFilterEqualTheScans(t *testing.T) {
	const n, jammer, dead, flaky = 120, 5, 7, 3
	k := sim.NewKernel()
	streams := sim.NewStreams(21)
	side := 1000 * math.Sqrt(float64(n)/50)
	mcfg := mobility.Config{Field: geom.Field{Width: side, Height: side}, MaxSpeed: 10, Pause: 3 * time.Second}
	pos := make([]channel.Positioner, n)
	for i := range pos {
		pos[i] = mobility.NewNode(mcfg, streams.StreamAt(0x_30B1, uint64(i)))
	}
	m := channel.NewModel(channel.DefaultConfig(), streams, pos)
	m.SetOutage(func(i int, at time.Duration) bool {
		return i == dead || (i == flaky && at >= 300*time.Millisecond && at < 1200*time.Millisecond)
	})
	c := NewCommonChannel(k, m, streams.Stream(0x_3AC0))
	l := &lawChecker{t: t, c: c}
	lawTraffic(k, l, rand.New(rand.NewSource(4)), jammer, 4*time.Second)
	if l.tested < 500 {
		t.Errorf("only %d of %d checks saw a completion with temporal overlaps: the traffic no longer exercises the filter", l.tested, l.probes)
	}
}

// TestAirStampsAgainstFakeOracle runs the same law over oracle_test.go's
// geometry-free fake, whose Interferers keeps every terminal: there the
// filtered overlap set must be the temporal one exactly.
func TestAirStampsAgainstFakeOracle(t *testing.T) {
	const n, jammer = 12, 2
	rng := rand.New(rand.NewSource(8))
	f := newFakeOracle(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(10) < 3 {
				f.link(i, j, channel.ClassB)
			}
		}
	}
	k := sim.NewKernel()
	c := NewCommonChannel(k, f, rand.New(rand.NewSource(9)))
	l := &lawChecker{t: t, c: c, exact: true}
	lawTraffic(k, l, rng, jammer, 4*time.Second)
	if l.tested < 500 {
		t.Errorf("only %d of %d checks saw a completion with temporal overlaps", l.tested, l.probes)
	}
}

// TestExportStateCapturesNoAirStamp pins the checkpoint seam's shape: the
// stamps are derived state, so CommonState is what it was before them.
func TestExportStateCapturesNoAirStamp(t *testing.T) {
	typ := reflect.TypeOf(CommonState{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if want := []string{"MaxAir", "Active", "Slots", "Deferred"}; !reflect.DeepEqual(got, want) {
		t.Errorf("CommonState fields = %v, want %v: a new captured field changes the MACS digest and needs a magic bump", got, want)
	}
}
