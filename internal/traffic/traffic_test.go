package traffic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rica/internal/channel"
	"rica/internal/geom"
	"rica/internal/mac"
	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/sim"
)

// fixedPos pins a terminal to one point.
type fixedPos geom.Point

func (p fixedPos) Position(time.Duration) geom.Point { return geom.Point(p) }

func TestChoosePairsDisjoint(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		flows := ChoosePairs(50, 10, 10, rand.New(rand.NewSource(seed)))
		if len(flows) != 10 {
			t.Fatalf("got %d flows", len(flows))
		}
		seen := make(map[int]bool)
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Fatalf("self flow %+v", f)
			}
			if seen[f.Src] || seen[f.Dst] {
				t.Fatalf("endpoint reused in %+v", f)
			}
			seen[f.Src] = true
			seen[f.Dst] = true
			if f.Rate != 10 {
				t.Fatalf("rate %v, want 10", f.Rate)
			}
		}
	}
}

func TestChoosePairsDeterministic(t *testing.T) {
	a := ChoosePairs(50, 10, 10, rand.New(rand.NewSource(3)))
	b := ChoosePairs(50, 10, 10, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different pairs")
		}
	}
}

func TestChoosePairsPanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 10 pairs from 19 terminals")
		}
	}()
	ChoosePairs(19, 10, 10, rand.New(rand.NewSource(1)))
}

// TestPoissonRate drives a generator against counting sinks and checks the
// realized rate is near the configured one.
func TestPoissonRate(t *testing.T) {
	kernel := sim.NewKernel()
	streams := sim.NewStreams(7)
	nodes, counts := countingNodes(t, kernel, streams, 4)
	gen := NewGenerator(kernel, nodes)
	const rate = 20.0
	const horizon = 100 * time.Second
	gen.Start([]Flow{{Src: 0, Dst: 1, Rate: rate}, {Src: 2, Dst: 3, Rate: rate}}, streams, horizon)
	kernel.Run(horizon)
	for _, src := range []int{0, 2} {
		got := float64(counts[src]) / horizon.Seconds()
		if math.Abs(got-rate) > rate*0.15 {
			t.Errorf("flow from %d realized %.1f packets/s, want ≈%v", src, got, rate)
		}
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Error("destination terminals generated packets")
	}
}

func TestZeroRateFlowInert(t *testing.T) {
	kernel := sim.NewKernel()
	streams := sim.NewStreams(9)
	nodes, counts := countingNodes(t, kernel, streams, 2)
	NewGenerator(kernel, nodes).Start([]Flow{{Src: 0, Dst: 1, Rate: 0}}, streams, 10*time.Second)
	kernel.Run(10 * time.Second)
	if counts[0] != 0 {
		t.Fatalf("zero-rate flow generated %d packets", counts[0])
	}
}

func TestGenerationStopsAtHorizon(t *testing.T) {
	kernel := sim.NewKernel()
	streams := sim.NewStreams(5)
	nodes, counts := countingNodes(t, kernel, streams, 2)
	NewGenerator(kernel, nodes).Start([]Flow{{Src: 0, Dst: 1, Rate: 50}}, streams, 5*time.Second)
	kernel.Run(20 * time.Second) // run far past the traffic stop
	rate := float64(counts[0]) / 5.0
	if rate < 35 || rate > 65 {
		t.Fatalf("realized %.1f packets/s over the 5 s window, want ≈50", rate)
	}
}

// countingNodes builds real network nodes whose agents count originations
// and drop everything (no routes).
func countingNodes(t *testing.T, kernel *sim.Kernel, streams *sim.Streams, n int) ([]*network.Node, []int) {
	t.Helper()
	counts := make([]int, n)
	pos := make([]channel.Positioner, n)
	for i := range pos {
		pos[i] = fixedPos{X: float64(i) * 50, Y: 0}
	}
	model := channel.NewModel(channel.DefaultConfig(), streams, pos)
	common := mac.NewCommonChannel(kernel, model, streams.Stream(999))
	data := mac.NewDataPlane(kernel, model)
	rec := nopRecorder{}
	nodes := make([]*network.Node, n)
	for i := 0; i < n; i++ {
		i := i
		nd := network.NewNode(i, kernel, common, data, model, streams.Stream(uint64(100+i)), rec, network.DefaultNodeConfig())
		nd.SetAgent(&countingAgent{counts: counts, id: i, env: nd})
		nodes[i] = nd
		nd.Start()
	}
	return nodes, counts
}

type nopRecorder struct{}

func (nopRecorder) DataGenerated(*packet.Packet, time.Duration)                   {}
func (nopRecorder) DataDelivered(*packet.Packet, time.Duration)                   {}
func (nopRecorder) DataDropped(*packet.Packet, network.DropReason, time.Duration) {}
func (nopRecorder) RouteInstalled(int, time.Duration)                             {}
func (nopRecorder) RouteInvalidated(int, time.Duration)                           {}

type countingAgent struct {
	counts []int
	id     int
	env    network.Env
}

func (a *countingAgent) Start(time.Duration)                           {}
func (a *countingAgent) HandleControl(*packet.Packet, time.Duration)   {}
func (a *countingAgent) DataArrived(*packet.Packet, time.Duration)     {}
func (a *countingAgent) LinkFailed(int, *packet.Packet, time.Duration) {}
func (a *countingAgent) DrainPending() (data, control int)             { return 0, 0 }
func (a *countingAgent) RouteData(p *packet.Packet, _ time.Duration) {
	a.counts[a.id]++
	a.env.DropData(p, network.DropNoRoute)
}
