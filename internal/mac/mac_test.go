package mac

import (
	"math/rand"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/geom"
	"rica/internal/packet"
	"rica/internal/sim"
)

// fixedPos pins a terminal to one point.
type fixedPos geom.Point

func (p fixedPos) Position(time.Duration) geom.Point { return geom.Point(p) }

// movingPos moves along +X at Speed m/s from Start.
type movingPos struct {
	Start geom.Point
	Speed float64
}

func (m movingPos) Position(at time.Duration) geom.Point {
	return geom.Point{X: m.Start.X + m.Speed*at.Seconds(), Y: m.Start.Y}
}

func testSetup(points ...channel.Positioner) (*sim.Kernel, *channel.Model) {
	k := sim.NewKernel()
	m := channel.NewModel(channel.DefaultConfig(), sim.NewStreams(1), points)
	return k, m
}

func ctrlPkt(typ packet.Type, from, to int) *packet.Packet {
	return &packet.Packet{Type: typ, From: from, To: to, Size: packet.SizeOf(typ)}
}

func TestCommonBroadcastReachesInRangeOnly(t *testing.T) {
	k, m := testSetup(
		fixedPos{X: 0, Y: 0},
		fixedPos{X: 100, Y: 0},
		fixedPos{X: 200, Y: 0},
		fixedPos{X: 600, Y: 0}, // out of range of node 0
	)
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	got := make(map[int]int)
	for i := 0; i < 4; i++ {
		i := i
		c.Register(i, func(p *packet.Packet, now time.Duration) { got[i]++ })
	}
	c.Send(ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast))
	k.Run(time.Second)
	if got[1] != 1 || got[2] != 1 {
		t.Errorf("in-range receivers got %v, want one delivery each", got)
	}
	if got[3] != 0 {
		t.Errorf("out-of-range receiver heard the broadcast: %v", got)
	}
	if got[0] != 0 {
		t.Errorf("sender heard its own broadcast: %v", got)
	}
}

func TestCommonUnicastOnlyTarget(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 150, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		c.Register(i, func(p *packet.Packet, now time.Duration) { got[i]++ })
	}
	c.Send(ctrlPkt(packet.TypeRREP, 0, 2))
	k.Run(time.Second)
	if got[2] != 1 {
		t.Errorf("unicast target deliveries = %d, want 1", got[2])
	}
	if got[1] != 0 {
		t.Errorf("non-target overheard unicast: %v", got)
	}
}

func TestReceiversGetIndependentCopies(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 150, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	c.Register(0, func(*packet.Packet, time.Duration) {})
	// Each receiver mutates the copy it is handed. Receiver 1 additionally
	// Clones its copy (the contract for keeping a packet past the handler
	// return); receiver 2's mutation must not reach it.
	var kept *packet.Packet
	var seenHops []float64
	c.Register(1, func(p *packet.Packet, now time.Duration) {
		seenHops = append(seenHops, p.HopCount)
		p.HopCount += 5
		kept = p.Clone()
	})
	c.Register(2, func(p *packet.Packet, now time.Duration) {
		seenHops = append(seenHops, p.HopCount)
		p.HopCount += 7
	})
	orig := ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast)
	c.Send(orig)
	k.Run(time.Second)
	if len(seenHops) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(seenHops))
	}
	for i, h := range seenHops {
		if h != 0 {
			t.Fatalf("receiver %d saw HopCount %v at delivery; another copy's mutation leaked in", i+1, h)
		}
	}
	if kept == nil || kept.HopCount != 5 {
		t.Fatalf("kept copy HopCount = %v, want the keeper's own mutation 5", kept.HopCount)
	}
	if orig.HopCount != 0 {
		t.Fatal("receiver mutation leaked into the original packet")
	}
	kept.Release()
}

// TestCarrierSenseSerializes verifies two in-range senders do not overlap:
// both packets are eventually delivered because the second sender backs off.
func TestCarrierSenseSerializes(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0}, fixedPos{X: 50, Y: 50})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(2)))
	got := 0
	c.Register(0, func(*packet.Packet, time.Duration) {})
	c.Register(1, func(*packet.Packet, time.Duration) {})
	c.Register(2, func(p *packet.Packet, now time.Duration) { got++ })
	// Big packets so they would surely overlap without carrier sensing.
	big := &packet.Packet{Type: packet.TypeLSA, From: 0, To: packet.Broadcast, Size: 400}
	big2 := &packet.Packet{Type: packet.TypeLSA, From: 1, To: packet.Broadcast, Size: 400}
	c.Send(big)
	k.Schedule(time.Millisecond, func(time.Duration) { c.Send(big2) }) // mid-air of big
	k.Run(time.Second)
	if got != 2 {
		t.Fatalf("receiver got %d packets, want 2 (backoff should avoid the collision)", got)
	}
}

// TestHiddenTerminalCollision: senders 0 and 2 are out of range of each
// other but both in range of 1; simultaneous sends destroy reception at 1.
func TestHiddenTerminalCollision(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 240, Y: 0}, fixedPos{X: 480, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(3)))
	got := 0
	c.Register(0, func(*packet.Packet, time.Duration) {})
	c.Register(1, func(p *packet.Packet, now time.Duration) { got++ })
	c.Register(2, func(*packet.Packet, time.Duration) {})
	c.Send(&packet.Packet{Type: packet.TypeLSA, From: 0, To: packet.Broadcast, Size: 300})
	c.Send(&packet.Packet{Type: packet.TypeLSA, From: 2, To: packet.Broadcast, Size: 300})
	k.Run(time.Second)
	if got != 0 {
		t.Fatalf("middle receiver decoded %d packets during a hidden-terminal collision, want 0", got)
	}
}

func TestOnTransmitObserved(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	c.Register(0, func(*packet.Packet, time.Duration) {})
	c.Register(1, func(*packet.Packet, time.Duration) {})
	var bits int
	c.OnTransmit = func(p *packet.Packet, from int, now time.Duration) { bits += p.Size * 8 }
	c.Send(ctrlPkt(packet.TypeRREQ, 0, packet.Broadcast))
	c.Send(ctrlPkt(packet.TypeRREP, 1, 0))
	k.Run(time.Second)
	want := (packet.SizeRREQ + packet.SizeRREP) * 8
	if bits != want {
		t.Fatalf("observed %d bits, want %d", bits, want)
	}
}

func TestBusyChannelEventuallyDropsPacket(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(4)))
	c.Register(0, func(*packet.Packet, time.Duration) {})
	c.Register(1, func(*packet.Packet, time.Duration) {})
	dropped := 0
	c.OnDropped = func(p *packet.Packet, from int, now time.Duration) { dropped++ }
	// Saturate: a giant packet occupies the air while another waits.
	c.Send(&packet.Packet{Type: packet.TypeLSA, From: 0, To: packet.Broadcast, Size: 100_000}) // 3.2 s airtime
	k.Schedule(time.Millisecond, func(time.Duration) {
		c.Send(ctrlPkt(packet.TypeRREQ, 1, packet.Broadcast))
	})
	k.Run(5 * time.Second)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (max backoff attempts exhausted)", dropped)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	c := NewCommonChannel(k, m, rand.New(rand.NewSource(1)))
	c.Register(0, func(*packet.Packet, time.Duration) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	c.Register(0, func(*packet.Packet, time.Duration) {})
}

func dataPkt(src, dst int) *packet.Packet {
	return &packet.Packet{Type: packet.TypeData, Src: src, Dst: dst, Size: packet.SizeData}
}

func TestDataDeliveryAndAck(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 50, Y: 0})
	d := NewDataPlane(k, m)
	delivered := 0
	d.Register(0, func(*packet.Packet, time.Duration) {})
	d.Register(1, func(p *packet.Packet, now time.Duration) { delivered++ })
	ackBits := 0
	d.OnAck = func(size int, now time.Duration) { ackBits += size * 8 }
	var res *SendResult
	d.Send(0, 1, dataPkt(0, 1), func(r SendResult) { res = &r })
	k.Run(time.Second)
	if res == nil || !res.OK {
		t.Fatalf("send result = %+v, want OK", res)
	}
	if !res.Class.Usable() {
		t.Fatalf("result class = %v, want usable", res.Class)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if ackBits != packet.SizeAck*8 {
		t.Fatalf("ack bits = %d, want %d", ackBits, packet.SizeAck*8)
	}
}

func TestDataSendFailsWhenOutOfRange(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 400, Y: 0})
	d := NewDataPlane(k, m)
	d.Register(0, func(*packet.Packet, time.Duration) {})
	delivered := 0
	d.Register(1, func(*packet.Packet, time.Duration) { delivered++ })
	var res *SendResult
	d.Send(0, 1, dataPkt(0, 1), func(r SendResult) { res = &r })
	k.Run(time.Second)
	if res == nil || res.OK {
		t.Fatalf("result = %+v, want failure", res)
	}
	if res.Class != channel.ClassNone {
		t.Fatalf("class = %v, want ClassNone", res.Class)
	}
	if delivered != 0 {
		t.Fatal("delivered despite broken link")
	}
}

func TestDataSendFailsWhenReceiverEscapesMidFlight(t *testing.T) {
	// Receiver starts just inside range and sprints outward; the class-D
	// fallback makes the packet slow enough (512 B at 50 kbps = 82 ms) that
	// a fast mover can escape. Use an artificially fast mover to force it.
	k, _ := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 0, Y: 0})
	m := channel.NewModel(channel.DefaultConfig(), sim.NewStreams(9),
		[]channel.Positioner{fixedPos{X: 0, Y: 0}, movingPos{Start: geom.Point{X: 249, Y: 0}, Speed: 100}})
	d := NewDataPlane(k, m)
	d.MaxRetries = 0
	d.Register(0, func(*packet.Packet, time.Duration) {})
	delivered := 0
	d.Register(1, func(*packet.Packet, time.Duration) { delivered++ })
	var res *SendResult
	d.Send(0, 1, dataPkt(0, 1), func(r SendResult) { res = &r })
	k.Run(time.Second)
	if res == nil {
		t.Fatal("done never invoked")
	}
	if res.OK || delivered != 0 {
		t.Fatalf("expected mid-flight escape to fail; result %+v delivered %d", res, delivered)
	}
	if res.Class == channel.ClassNone {
		t.Fatal("class should reflect the attempted transmission, not ClassNone")
	}
}

func TestDataDoneNotSynchronous(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 400, Y: 0})
	d := NewDataPlane(k, m)
	d.Register(0, func(*packet.Packet, time.Duration) {})
	d.Register(1, func(*packet.Packet, time.Duration) {})
	calledDuringSend := true
	d.Send(0, 1, dataPkt(0, 1), func(SendResult) { calledDuringSend = false })
	if !calledDuringSend {
		t.Fatal("done invoked synchronously from Send")
	}
	k.Run(time.Second)
	if calledDuringSend {
		t.Fatal("done never invoked")
	}
}

func TestDataSendToSelfPanics(t *testing.T) {
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 100, Y: 0})
	d := NewDataPlane(k, m)
	defer func() {
		if recover() == nil {
			t.Fatal("self send did not panic")
		}
	}()
	d.Send(1, 1, dataPkt(1, 1), func(SendResult) {})
}

func TestDataTransferTimeScalesWithClass(t *testing.T) {
	// Place the pair very close so class A dominates; the end-to-end data
	// exchange (512 B + 16 B ack at 250 kbps) should take ~16.9 ms.
	k, m := testSetup(fixedPos{X: 0, Y: 0}, fixedPos{X: 5, Y: 0})
	d := NewDataPlane(k, m)
	d.Register(0, func(*packet.Packet, time.Duration) {})
	d.Register(1, func(*packet.Packet, time.Duration) {})
	var doneAt time.Duration
	d.Send(0, 1, dataPkt(0, 1), func(SendResult) { doneAt = k.Now() })
	k.Run(time.Second)
	if doneAt < 15*time.Millisecond || doneAt > 120*time.Millisecond {
		t.Fatalf("exchange took %v, want ~17 ms (class A) and never more than class D's ~106 ms", doneAt)
	}
}
