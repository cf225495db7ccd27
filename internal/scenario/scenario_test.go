package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRegistryCompleteness: the catalog carries at least the eight
// documented built-ins, and every entry validates and compiles to a
// runnable configuration.
func TestRegistryCompleteness(t *testing.T) {
	want := []string{
		"paper-baseline", "dense-urban", "sparse-rural", "grid-8x8",
		"chain-10", "partition-heal", "hotspot-burst", "churn-heavy",
	}
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d scenarios, want ≥ 8", len(names))
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing built-in %q", w)
		}
	}
	for _, name := range names {
		spec, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("%q: spec.Name = %q", name, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("%q: no description", name)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%q does not validate: %v", name, err)
		}
		cfg, err := spec.Compile()
		if err != nil {
			t.Errorf("%q does not compile: %v", name, err)
			continue
		}
		if cfg.Duration <= 0 {
			t.Errorf("%q compiled with no horizon", name)
		}
		if n := spec.Topology.NodeCount(); n < 2 {
			t.Errorf("%q places %d terminals", name, n)
		}
		if cfg.StaticPositions != nil && len(cfg.StaticPositions) != spec.Topology.NodeCount() {
			t.Errorf("%q: %d positions for %d terminals",
				name, len(cfg.StaticPositions), spec.Topology.NodeCount())
		}
	}
}

// TestJSONRoundTrip: every built-in survives encode → decode unchanged,
// so specs can be persisted and reloaded without drift.
func TestJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, _ := ByName(name)
		data, err := spec.JSON()
		if err != nil {
			t.Fatalf("%q: marshal: %v", name, err)
		}
		back, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%q: parse: %v", name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%q: round trip drifted:\n got %+v\nwant %+v", name, back, spec)
		}
	}
}

// TestParseJSONDurationForms: durations decode from both "90s" strings
// and bare seconds.
func TestParseJSONDurationForms(t *testing.T) {
	spec, err := ParseJSON([]byte(`{
		"name": "t",
		"topology": {"kind": "chain", "n": 3, "spacing": 200},
		"traffic": {"kind": "poisson", "rate": 5, "pairs": [{"src": 0, "dst": 2}]},
		"duration": 90
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(spec.Duration) != 90*time.Second {
		t.Errorf("numeric duration = %v, want 90s", time.Duration(spec.Duration))
	}
	spec, err = ParseJSON([]byte(`{
		"name": "t",
		"topology": {"kind": "chain", "n": 3, "spacing": 200},
		"traffic": {"kind": "poisson", "rate": 5, "pairs": [{"src": 0, "dst": 2}]},
		"duration": "2m"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(spec.Duration) != 2*time.Minute {
		t.Errorf("string duration = %v, want 2m", time.Duration(spec.Duration))
	}
}

// TestParseJSONRejectsUnknownFields: typos in hand-written specs fail
// loudly instead of silently doing nothing.
func TestParseJSONRejectsUnknownFields(t *testing.T) {
	_, err := ParseJSON([]byte(`{
		"name": "t",
		"topologee": {"kind": "chain", "n": 3, "spacing": 200}
	}`))
	if err == nil || !strings.Contains(err.Error(), "topologee") {
		t.Errorf("unknown field accepted, err = %v", err)
	}
}

// TestValidateRejects: the structural errors Validate exists to catch.
func TestValidateRejects(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:     "t",
			Topology: Topology{Kind: TopoChain, N: 6, Spacing: 200},
			Traffic:  Traffic{Kind: TrafficPoisson, Flows: 2, Rate: 5},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"missing name", func(s *Spec) { s.Name = "" }},
		{"unknown topology", func(s *Spec) { s.Topology.Kind = "torus" }},
		{"unknown traffic", func(s *Spec) { s.Traffic.Kind = "fractal" }},
		{"zero rate", func(s *Spec) { s.Traffic.Rate = 0 }},
		{"too many flows", func(s *Spec) { s.Traffic.Flows = 4 }},
		{"pair out of range", func(s *Spec) { s.Traffic.Pairs = []Pair{{Src: 0, Dst: 6}} }},
		{"self pair", func(s *Spec) { s.Traffic.Pairs = []Pair{{Src: 1, Dst: 1}} }},
		{"outage unknown node", func(s *Spec) {
			s.Outages = []Outage{{Node: 9, From: 0, Until: Duration(time.Second)}}
		}},
		{"empty outage window", func(s *Spec) {
			s.Outages = []Outage{{Node: 1, From: Duration(5 * time.Second), Until: Duration(5 * time.Second)}}
		}},
		{"onoff without windows", func(s *Spec) { s.Traffic.Kind = TrafficOnOff }},
		{"negative pause", func(s *Spec) {
			s.Topology = Topology{
				Kind: TopoWaypoint, N: 10, Width: 500, Height: 500,
				Pause: Duration(-time.Second),
			}
		}},
	}
	for _, c := range cases {
		s := base()
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec must validate: %v", err)
	}
}

// TestZeroPauseIsLiteral: "pause": "0s" means continuous motion, not a
// silent fallback to the paper's 3 s default — the same sentinel trap
// batch.Config.SeedZero exists to avoid.
func TestZeroPauseIsLiteral(t *testing.T) {
	spec := Spec{
		Name:     "t",
		Topology: Topology{Kind: TopoWaypoint, N: 10, Width: 500, Height: 500, MeanSpeedKmh: 20},
		Traffic:  Traffic{Kind: TrafficPoisson, Flows: 2, Rate: 5},
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pause != 0 {
		t.Errorf("zero pause compiled to %v", cfg.Pause)
	}
}

// TestCompileIsPure: compiling the same spec twice yields deeply equal
// configurations — placement (including cluster packing) must not draw
// randomness.
func TestCompileIsPure(t *testing.T) {
	for _, name := range []string{"hotspot-burst", "grid-8x8", "partition-heal"} {
		spec, _ := ByName(name)
		a, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := spec.Compile()
		// Config holds a *trace.Recorder (nil here) and plain data
		// otherwise; DeepEqual is exact.
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%q: two compilations differ", name)
		}
	}
}

// TestClusterPlacementStaysInDisc: sunflower packing keeps every terminal
// inside its cluster's radius.
func TestClusterPlacementStaysInDisc(t *testing.T) {
	topo := Topology{
		Kind:     TopoClusters,
		Clusters: []Cluster{{X: 100, Y: 200, Radius: 50, Count: 20}},
	}
	pts := topo.placements()
	if len(pts) != 20 {
		t.Fatalf("placed %d terminals, want 20", len(pts))
	}
	for i, p := range pts {
		dx, dy := p.X-100, p.Y-200
		if dx*dx+dy*dy > 50*50+1e-9 {
			t.Errorf("terminal %d at (%g, %g) escapes the disc", i, p.X, p.Y)
		}
	}
}
