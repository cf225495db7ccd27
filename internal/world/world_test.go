package world_test

import (
	"testing"
	"time"

	"rica/internal/network"
	"rica/internal/packet"
	"rica/internal/world"
)

// dropAgent discards everything; worlds still generate and account traffic.
type dropAgent struct{ env network.Env }

func (a *dropAgent) Start(time.Duration)                           {}
func (a *dropAgent) HandleControl(*packet.Packet, time.Duration)   {}
func (a *dropAgent) DataArrived(*packet.Packet, time.Duration)     {}
func (a *dropAgent) LinkFailed(int, *packet.Packet, time.Duration) {}
func (a *dropAgent) DrainPending() (data, control int)             { return 0, 0 }
func (a *dropAgent) RouteData(p *packet.Packet, _ time.Duration) {
	a.env.DropData(p, network.DropNoRoute)
}

func dropFactory(env network.Env, _ *world.World, _ int) network.Agent {
	return &dropAgent{env: env}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := world.DefaultConfig(36, 10)
	if cfg.N != 50 {
		t.Errorf("N = %d, want 50", cfg.N)
	}
	if cfg.Field.Width != 1000 || cfg.Field.Height != 1000 {
		t.Errorf("field = %+v, want 1000x1000", cfg.Field)
	}
	if cfg.Pause != 3*time.Second {
		t.Errorf("pause = %v, want 3s", cfg.Pause)
	}
	// Mean 36 km/h means MAXSPEED = 72 km/h = 20 m/s.
	if cfg.MaxSpeed != 20 {
		t.Errorf("MaxSpeed = %v m/s, want 20", cfg.MaxSpeed)
	}
	if cfg.NumFlows != 10 || cfg.FlowRate != 10 {
		t.Errorf("flows = %d @ %v", cfg.NumFlows, cfg.FlowRate)
	}
	if cfg.Duration != 500*time.Second {
		t.Errorf("duration = %v, want 500s", cfg.Duration)
	}
	if cfg.Node.BufferCap != 10 || cfg.Node.BufferLifetime != 3*time.Second {
		t.Errorf("buffers = %+v", cfg.Node)
	}
}

func TestWorldFlowsDeterministic(t *testing.T) {
	cfg := world.DefaultConfig(20, 10)
	cfg.Duration = time.Second
	a := world.New(cfg, dropFactory)
	b := world.New(cfg, dropFactory)
	if len(a.Flows) != 10 {
		t.Fatalf("flows = %d", len(a.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("same seed chose different flows")
		}
	}
	cfg.Seed = 2
	c := world.New(cfg, dropFactory)
	same := true
	for i := range a.Flows {
		if a.Flows[i] != c.Flows[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds chose identical flows")
	}
}

// TestBootTopologySane checks the link-state protocol's t = 0 view: it is
// cached, symmetric, in range, weighted by CSI hop distance, dense enough
// to route over, and exactly the graph a plain survey of a second world of
// the same config finds — every pair i < j in range at t = 0, weighted by
// its class's hop distance.
func TestBootTopologySane(t *testing.T) {
	cfg := world.DefaultConfig(20, 10)
	cfg.Duration = time.Second
	w := world.New(cfg, dropFactory)
	g := w.BootTopology()
	if g2 := w.BootTopology(); g2 != g {
		t.Fatal("BootTopology not cached")
	}
	ref := world.New(cfg, dropFactory).Model
	edges := 0
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			w12, ok12 := g.Edge(i, j)
			w21, ok21 := g.Edge(j, i)
			if ok12 != ok21 || (ok12 && w12 != w21) {
				t.Fatalf("asymmetric boot edge %d-%d", i, j)
			}
			in := ref.InRange(i, j, 0)
			if ok12 != in {
				t.Fatalf("boot edge %d-%d present %v, reference survey finds the pair in range %v", i, j, ok12, in)
			}
			if !ok12 {
				continue
			}
			edges++
			if !w.Model.InRange(i, j, 0) {
				t.Fatalf("boot edge %d-%d is out of range", i, j)
			}
			if w12 < 1 || w12 > 5 {
				t.Fatalf("boot edge weight %v outside CSI hop range", w12)
			}
			if want := ref.Class(i, j, 0).HopDistance(); w12 != want {
				t.Fatalf("boot edge %d-%d weighs %v, reference survey %v", i, j, w12, want)
			}
		}
	}
	// 50 nodes at 250 m range in 1 km² have ~200+ links.
	if edges < 100 {
		t.Fatalf("only %d boot edges; field too sparse?", edges)
	}
}

func TestRunAccountsAllTraffic(t *testing.T) {
	cfg := world.DefaultConfig(20, 10)
	cfg.Duration = 10 * time.Second
	s := world.New(cfg, dropFactory).Run()
	if s.Generated == 0 {
		t.Fatal("no traffic generated")
	}
	// The drop agent kills every packet at its source.
	if s.Dropped[network.DropNoRoute] != s.Generated {
		t.Fatalf("drops %v do not match generated %d", s.Dropped, s.Generated)
	}
	if s.Delivered != 0 {
		t.Fatalf("delivered %d with a drop-everything agent", s.Delivered)
	}
}

func TestFactoryReceivesEveryNode(t *testing.T) {
	cfg := world.DefaultConfig(0, 10)
	cfg.Duration = time.Second
	ids := make(map[int]bool)
	world.New(cfg, func(env network.Env, w *world.World, id int) network.Agent {
		if env.ID() != id {
			t.Errorf("factory id %d != env id %d", id, env.ID())
		}
		ids[id] = true
		return &dropAgent{env: env}
	})
	if len(ids) != cfg.N {
		t.Fatalf("factory called for %d of %d nodes", len(ids), cfg.N)
	}
}
