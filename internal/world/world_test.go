package world_test

import (
	"strings"
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

func TestBootTopologySane(t *testing.T) {
	cfg := world.DefaultConfig(20, 10)
	cfg.Duration = time.Second
	w := world.New(cfg, dropFactory)
	g := w.BootTopology()
	if g2 := w.BootTopology(); g2 != g {
		t.Fatal("BootTopology not cached")
	}
	edges := 0
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			w12, ok12 := g.Edge(i, j)
			w21, ok21 := g.Edge(j, i)
			if ok12 != ok21 || (ok12 && w12 != w21) {
				t.Fatalf("asymmetric boot edge %d-%d", i, j)
			}
			if !ok12 {
				continue
			}
			edges++
			if d := w.Model.Distance(i, j, 0); d > 250 {
				t.Fatalf("boot edge %d-%d spans %.0f m", i, j, d)
			}
			if w12 < 1 || w12 > 5 {
				t.Fatalf("boot edge weight %v outside CSI hop range", w12)
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

func TestRenderMapShowsEndpointsAndTerminals(t *testing.T) {
	cfg := world.DefaultConfig(0, 10)
	cfg.Duration = time.Second
	w := world.New(cfg, dropFactory)
	m := w.RenderMap(0, 60, 20)
	if !strings.Contains(m, "S") || !strings.Contains(m, "D") {
		t.Fatalf("map missing flow endpoints:\n%s", m)
	}
	lines := strings.Split(strings.TrimSpace(m), "\n")
	if len(lines) != 21 { // header + 20 rows
		t.Fatalf("map has %d lines, want 21", len(lines))
	}
	digits := 0
	for _, ch := range m {
		if ch >= '0' && ch <= '9' {
			digits++
		}
	}
	if digits < 20 {
		t.Fatalf("map shows only %d terminal markers", digits)
	}
}

func TestCountLinksPlausible(t *testing.T) {
	cfg := world.DefaultConfig(0, 10)
	cfg.Duration = time.Second
	w := world.New(cfg, dropFactory)
	links := w.CountLinks(0)
	// 50 nodes, 250 m range on 1 km²: expected ~πr²/A·C(50,2) ≈ 200-260.
	if links < 100 || links > 450 {
		t.Fatalf("links = %d, outside plausible density", links)
	}
}
