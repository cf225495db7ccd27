// Package scenario provides a declarative description of simulation
// workloads. A Spec names a topology (mobile waypoint field, static grid,
// chain, clusters, or scripted positions), a traffic pattern (Poisson,
// CBR, or bursty on-off), an optional node failure/heal schedule, and
// channel/buffer overrides, and compiles down to a ready-to-run
// world.Config. Specs serialize to JSON, so scenarios can be stored,
// shared, and mass-executed by the batch engine; a registry of named
// built-ins covers the paper's baseline and a spread of stress cases.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rica/internal/geom"
	"rica/internal/traffic"
	"rica/internal/world"
)

// Duration is a time.Duration that serializes as a human-readable string
// ("90s", "2m"); decoding also accepts a bare number of seconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string or seconds: %s", b)
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// TopologyKind selects how terminals are placed (and whether they move).
type TopologyKind string

// The supported topology kinds.
const (
	TopoWaypoint TopologyKind = "waypoint" // random-waypoint mobility in a field
	TopoGrid     TopologyKind = "grid"     // static Rows×Cols lattice
	TopoChain    TopologyKind = "chain"    // static line of N terminals
	TopoClusters TopologyKind = "clusters" // static hotspot clusters
	TopoStatic   TopologyKind = "static"   // scripted positions
)

// Topology describes terminal placement. Only the fields of the selected
// Kind are consulted; Validate rejects kind/field mismatches that matter.
type Topology struct {
	Kind TopologyKind `json:"kind"`

	// Waypoint fields. Pause is the waypoint dwell time, applied as
	// written — zero (or omitted) means terminals move continuously, with
	// no hidden fallback to the paper's 3 s.
	N            int      `json:"n,omitempty"`
	Width        float64  `json:"width,omitempty"`
	Height       float64  `json:"height,omitempty"`
	MeanSpeedKmh float64  `json:"mean_speed_kmh,omitempty"`
	Pause        Duration `json:"pause,omitempty"`

	// Grid fields (N is Rows×Cols implicitly).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Spacing separates adjacent grid columns/rows and chain neighbours,
	// in metres.
	Spacing float64 `json:"spacing,omitempty"`

	// Cluster fields.
	Clusters []Cluster `json:"clusters,omitempty"`

	// Static fields.
	Positions []Point `json:"positions,omitempty"`
}

// Cluster is one static hotspot: Count terminals packed in a disc.
type Cluster struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	Count  int     `json:"count"`
}

// Point is a scripted terminal position in metres.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// NodeCount reports how many terminals the topology places.
func (t Topology) NodeCount() int {
	switch t.Kind {
	case TopoWaypoint:
		return t.N
	case TopoGrid:
		return t.Rows * t.Cols
	case TopoChain:
		return t.N
	case TopoClusters:
		n := 0
		for _, c := range t.Clusters {
			n += c.Count
		}
		return n
	case TopoStatic:
		return len(t.Positions)
	default:
		return 0
	}
}

// TrafficKind selects the workload's arrival process.
type TrafficKind string

// The supported traffic kinds.
const (
	TrafficPoisson TrafficKind = "poisson"
	TrafficCBR     TrafficKind = "cbr"
	TrafficOnOff   TrafficKind = "onoff"
	TrafficGossip  TrafficKind = "gossip" // epidemic push-rumor dissemination
)

// pattern maps the kind to the traffic package's arrival process.
func (k TrafficKind) pattern() traffic.Pattern {
	switch k {
	case TrafficCBR:
		return traffic.CBR
	case TrafficOnOff:
		return traffic.OnOff
	default:
		return traffic.Poisson
	}
}

// Pair pins one flow's endpoints.
type Pair struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Traffic describes the offered load.
type Traffic struct {
	Kind TrafficKind `json:"kind"`
	// Flows is the number of random disjoint source/destination pairs to
	// draw per trial; ignored when Pairs pins the endpoints explicitly.
	Flows int `json:"flows,omitempty"`
	// Rate is packets/s per flow (during On windows for onoff traffic).
	Rate float64 `json:"rate"`
	// Pairs, when non-empty, pins every flow's endpoints.
	Pairs []Pair `json:"pairs,omitempty"`
	// On and Off set the burst cycle of onoff traffic.
	On  Duration `json:"on,omitempty"`
	Off Duration `json:"off,omitempty"`
	// Rumors and Pushes shape gossip traffic: Rumors independent
	// epidemics are seeded at random terminals, and every infected
	// terminal pushes each rumor to Pushes random targets at Rate
	// pushes/s. Gossip needs no flows or pairs — the pushes are the
	// workload.
	Rumors int `json:"rumors,omitempty"`
	Pushes int `json:"pushes,omitempty"`
}

// Outage schedules one node failure: the terminal's radio is silent
// during [From, Until) and heals at Until.
type Outage struct {
	Node  int      `json:"node"`
	From  Duration `json:"from"`
	Until Duration `json:"until"`
}

// AdversaryKind selects a misbehaviour.
type AdversaryKind string

// The supported adversary behaviours.
const (
	// AdversaryDrop is a byzantine forwarder: the terminal participates
	// in routing honestly but discards a fraction of the transit data it
	// is asked to relay.
	AdversaryDrop AdversaryKind = "drop"
	// AdversaryJam is an always-on noise source: the terminal puts
	// periodic carrier bursts on the common channel, ignoring CSMA,
	// colliding with whatever overlaps them.
	AdversaryJam AdversaryKind = "jam"
)

// Adversary plants one misbehaving terminal. Only the fields of the
// selected Behavior are consulted; the window [From, Until) bounds the
// misbehaviour, with a zero Until meaning the whole run.
type Adversary struct {
	Node     int           `json:"node"`
	Behavior AdversaryKind `json:"behavior"`
	// DropProb is the drop behaviour's per-packet discard probability.
	DropProb float64 `json:"drop_prob,omitempty"`
	// Rate is the jam behaviour's bursts/s; Size the burst's bytes
	// (default packet.SizeJam).
	Rate float64 `json:"rate,omitempty"`
	Size int     `json:"size,omitempty"`
	// From and Until bound the misbehaviour window.
	From  Duration `json:"from,omitempty"`
	Until Duration `json:"until,omitempty"`
}

// Churn generates a storm of short node outages without writing each one
// out: wave w (0-based) starts at From + w×Period and takes down Nodes
// terminals — ids (w×Nodes+k) mod n, a rolling frontier over the node
// set — for Down each. Waves may overlap when Down exceeds Period.
type Churn struct {
	// Nodes is how many terminals each wave takes down.
	Nodes int `json:"nodes"`
	// Waves is how many waves to schedule.
	Waves int `json:"waves"`
	// Period separates consecutive wave starts.
	Period Duration `json:"period"`
	// Down is each victim's outage length.
	Down Duration `json:"down"`
	// From delays the first wave.
	From Duration `json:"from,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Topology    Topology `json:"topology"`
	Traffic     Traffic  `json:"traffic"`
	// Outages is the node failure & heal schedule.
	Outages []Outage `json:"outages,omitempty"`
	// Adversaries plants misbehaving terminals (droppers, jammers).
	Adversaries []Adversary `json:"adversaries,omitempty"`
	// Churn schedules a storm of rolling short outages on top of any
	// explicit Outages.
	Churn *Churn `json:"churn,omitempty"`
	// RangeM overrides the radio reception range in metres (default 250).
	RangeM float64 `json:"range_m,omitempty"`
	// BufferCap and BufferLifetime override the store-and-forward buffers
	// (defaults: 10 packets, 3 s).
	BufferCap      int      `json:"buffer_cap,omitempty"`
	BufferLifetime Duration `json:"buffer_lifetime,omitempty"`
	// Duration is the simulated horizon (default: the paper's 500 s).
	Duration Duration `json:"duration,omitempty"`
	// Seed selects the random universe of a standalone run; the batch
	// engine overrides it per cell. Zero keeps the library default.
	Seed int64 `json:"seed,omitempty"`
}

// ParseJSON decodes a Spec from JSON, rejecting unknown fields so typos
// in hand-written scenario files fail loudly, and validates the result.
func ParseJSON(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// JSON encodes the spec, indented for human editing.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Sanity bounds for spec fields. JSON happily expresses a 10^306-metre
// grid spacing or a 10^300 km/h speed; those parse, but downstream the
// spatial index or the mobility model melts (integer-overflow panics,
// unbounded rebuild loops). Validation rejects them up front, naming the
// offending field, so a bad spec is an error message and never a panic.
const (
	// MaxNodes bounds how many terminals a topology may place.
	MaxNodes = 100_000
	// MaxCoordM bounds every coordinate and extent in metres (50 km —
	// far beyond any ad hoc radio deployment).
	MaxCoordM = 50_000
	// MaxSpeedKmh bounds the waypoint mean speed.
	MaxSpeedKmh = 1_000
	// MaxRate bounds the per-flow offered load in packets/s.
	MaxRate = 100_000
	// MaxDuration bounds the horizon and every schedule timestamp.
	MaxDuration = Duration(24 * time.Hour)
	// MinRangeM and MaxRangeM bound the radio range override: the range
	// is also the spatial index's cell size, so a micrometre range would
	// explode the cell count.
	MinRangeM = 10
	MaxRangeM = 10_000
	// MaxGossipRumors bounds how many epidemics gossip traffic seeds.
	MaxGossipRumors = 256
	// MaxGossipPushes bounds each infection's push budget.
	MaxGossipPushes = 64
	// MaxChurnWaves bounds the churn storm's wave count.
	MaxChurnWaves = 10_000
	// MaxJamBytes bounds one jam burst (32× the jam default — half a
	// second of carrier at 250 kbps, already far past plausible).
	MaxJamBytes = 4_096
)

// Validate checks the spec for structural errors. A valid spec always
// compiles — and runs without panicking: besides shape checks (topology
// and traffic kinds, endpoint ranges), validation enforces the package's
// sanity bounds on sizes, coordinates, speeds, rates, and durations.
func (s Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: "+format, append([]any{s.Name}, args...)...)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	n := s.Topology.NodeCount()
	if n > MaxNodes {
		return fail("topology places %d terminals; max %d", n, MaxNodes)
	}
	switch s.Topology.Kind {
	case TopoWaypoint:
		if s.Topology.N < 2 {
			return fail("waypoint topology needs n ≥ 2, got %d", s.Topology.N)
		}
		if s.Topology.Width <= 0 || s.Topology.Height <= 0 {
			return fail("waypoint topology needs a positive field, got %g×%g",
				s.Topology.Width, s.Topology.Height)
		}
		if s.Topology.Width > MaxCoordM || s.Topology.Height > MaxCoordM {
			return fail("topology.width/height %g×%g exceeds the %d m bound",
				s.Topology.Width, s.Topology.Height, MaxCoordM)
		}
		// Written so NaN fails too: JSON cannot carry one, a Go caller
		// (a figure sweep's speed list) can.
		if !(s.Topology.MeanSpeedKmh >= 0) {
			return fail("mean speed must be a non-negative number, got %g", s.Topology.MeanSpeedKmh)
		}
		if s.Topology.MeanSpeedKmh > MaxSpeedKmh {
			return fail("topology.mean_speed_kmh %g exceeds the %d km/h bound",
				s.Topology.MeanSpeedKmh, MaxSpeedKmh)
		}
		if s.Topology.Pause < 0 {
			return fail("negative pause %v", time.Duration(s.Topology.Pause))
		}
		if s.Topology.Pause > MaxDuration {
			return fail("topology.pause %v exceeds the %v bound",
				time.Duration(s.Topology.Pause), time.Duration(MaxDuration))
		}
	case TopoGrid:
		if s.Topology.Rows < 1 || s.Topology.Cols < 1 ||
			s.Topology.Rows > MaxNodes || s.Topology.Cols > MaxNodes || n < 2 || n > MaxNodes {
			return fail("grid topology needs 2 ≤ rows×cols ≤ %d, got %d×%d",
				MaxNodes, s.Topology.Rows, s.Topology.Cols)
		}
		if s.Topology.Spacing <= 0 {
			return fail("grid topology needs positive spacing")
		}
		if extent := s.Topology.Spacing * float64(max(s.Topology.Rows, s.Topology.Cols)-1); extent > MaxCoordM {
			return fail("topology.spacing %g m spans %g m; the grid must fit in %d m",
				s.Topology.Spacing, extent, MaxCoordM)
		}
	case TopoChain:
		if s.Topology.N < 2 {
			return fail("chain topology needs n ≥ 2, got %d", s.Topology.N)
		}
		if s.Topology.Spacing <= 0 {
			return fail("chain topology needs positive spacing")
		}
		if extent := s.Topology.Spacing * float64(s.Topology.N-1); extent > MaxCoordM {
			return fail("topology.spacing %g m spans %g m; the chain must fit in %d m",
				s.Topology.Spacing, extent, MaxCoordM)
		}
	case TopoClusters:
		if len(s.Topology.Clusters) == 0 || n < 2 {
			return fail("clusters topology needs clusters totalling ≥ 2 terminals")
		}
		for i, c := range s.Topology.Clusters {
			if c.Count < 1 || c.Radius <= 0 {
				return fail("cluster %d needs count ≥ 1 and positive radius", i)
			}
			if math.Abs(c.X)+c.Radius > MaxCoordM || math.Abs(c.Y)+c.Radius > MaxCoordM {
				return fail("cluster %d (x=%g y=%g radius=%g) reaches beyond the %d m bound",
					i, c.X, c.Y, c.Radius, MaxCoordM)
			}
		}
	case TopoStatic:
		if n < 2 {
			return fail("static topology needs ≥ 2 positions, got %d", n)
		}
		for i, p := range s.Topology.Positions {
			if math.Abs(p.X) > MaxCoordM || math.Abs(p.Y) > MaxCoordM {
				return fail("positions[%d] (%g, %g) outside the ±%d m bound", i, p.X, p.Y, MaxCoordM)
			}
		}
	default:
		return fail("unknown topology kind %q", s.Topology.Kind)
	}

	switch s.Traffic.Kind {
	case TrafficPoisson, TrafficCBR:
	case TrafficOnOff:
		if s.Traffic.On <= 0 || s.Traffic.Off <= 0 {
			return fail("onoff traffic needs positive on and off windows")
		}
		if s.Traffic.On > MaxDuration || s.Traffic.Off > MaxDuration {
			return fail("traffic.on/off windows exceed the %v bound", time.Duration(MaxDuration))
		}
	case TrafficGossip:
		if s.Traffic.Rumors < 1 || s.Traffic.Rumors > MaxGossipRumors {
			return fail("gossip traffic needs 1 ≤ rumors ≤ %d, got %d",
				MaxGossipRumors, s.Traffic.Rumors)
		}
		if s.Traffic.Pushes < 0 || s.Traffic.Pushes > MaxGossipPushes {
			return fail("traffic.pushes %d outside [0, %d]", s.Traffic.Pushes, MaxGossipPushes)
		}
		if len(s.Traffic.Pairs) > 0 {
			return fail("gossip traffic draws its own targets; pairs must be empty")
		}
		if s.Traffic.Flows != 0 {
			return fail("gossip traffic needs no flows (the pushes are the workload), got %d",
				s.Traffic.Flows)
		}
	default:
		return fail("unknown traffic kind %q", s.Traffic.Kind)
	}
	if s.Traffic.Kind != TrafficGossip && (s.Traffic.Rumors != 0 || s.Traffic.Pushes != 0) {
		return fail("traffic.rumors/pushes only apply to gossip traffic, kind is %q", s.Traffic.Kind)
	}
	if s.Traffic.Rate <= 0 {
		return fail("traffic rate must be positive, got %g", s.Traffic.Rate)
	}
	if s.Traffic.Rate > MaxRate {
		return fail("traffic.rate %g exceeds the %d packets/s bound", s.Traffic.Rate, MaxRate)
	}
	if len(s.Traffic.Pairs) == 0 && s.Traffic.Kind != TrafficGossip {
		if s.Traffic.Flows < 1 {
			return fail("traffic needs flows ≥ 1 or explicit pairs")
		}
		// Flows > n/2 rather than 2*Flows > n: the multiplication would
		// overflow for absurd (but parseable) flow counts and wave them
		// through.
		if s.Traffic.Flows > n/2 {
			return fail("%d disjoint flows need 2×%d terminals, topology has %d",
				s.Traffic.Flows, s.Traffic.Flows, n)
		}
	}
	for i, p := range s.Traffic.Pairs {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n || p.Src == p.Dst {
			return fail("pair %d (%d→%d) out of range for %d terminals", i, p.Src, p.Dst, n)
		}
	}
	for i, o := range s.Outages {
		if o.Node < 0 || o.Node >= n {
			return fail("outage %d names terminal %d of %d", i, o.Node, n)
		}
		if o.Until <= o.From {
			return fail("outage %d window [%v, %v) is empty", i,
				time.Duration(o.From), time.Duration(o.Until))
		}
		if o.From > MaxDuration || o.Until > MaxDuration {
			return fail("outage %d window exceeds the %v bound", i, time.Duration(MaxDuration))
		}
	}
	for i, a := range s.Adversaries {
		if a.Node < 0 || a.Node >= n {
			return fail("adversaries[%d].node names terminal %d of %d", i, a.Node, n)
		}
		switch a.Behavior {
		case AdversaryDrop:
			// !(p ∈ [0,1]) rather than p < 0 || p > 1, so a NaN drop_prob
			// (which compares false against everything) is rejected too.
			if !(a.DropProb >= 0 && a.DropProb <= 1) {
				return fail("adversaries[%d].drop_prob %g outside [0, 1]", i, a.DropProb)
			}
			if a.Rate != 0 || a.Size != 0 {
				return fail("adversaries[%d]: rate/size only apply to jam behaviour", i)
			}
		case AdversaryJam:
			if !(a.Rate > 0 && a.Rate <= MaxRate) {
				return fail("adversaries[%d].rate %g outside (0, %d] bursts/s", i, a.Rate, MaxRate)
			}
			if a.Size < 0 || a.Size > MaxJamBytes {
				return fail("adversaries[%d].size %d outside [0, %d] bytes", i, a.Size, MaxJamBytes)
			}
			if a.DropProb != 0 {
				return fail("adversaries[%d]: drop_prob only applies to drop behaviour", i)
			}
		default:
			return fail("adversaries[%d]: unknown behavior %q (have drop, jam)", i, a.Behavior)
		}
		if a.From < 0 || a.Until < 0 {
			return fail("adversaries[%d] window has a negative bound", i)
		}
		if a.Until != 0 && a.Until <= a.From {
			return fail("adversaries[%d] window [%v, %v) is empty", i,
				time.Duration(a.From), time.Duration(a.Until))
		}
		if a.From > MaxDuration || a.Until > MaxDuration {
			return fail("adversaries[%d] window exceeds the %v bound", i, time.Duration(MaxDuration))
		}
	}
	if c := s.Churn; c != nil {
		if c.Nodes < 1 {
			return fail("churn.nodes must be ≥ 1, got %d", c.Nodes)
		}
		if c.Nodes > n {
			return fail("churn.nodes %d exceeds the topology's %d terminals", c.Nodes, n)
		}
		if c.Waves < 1 || c.Waves > MaxChurnWaves {
			return fail("churn.waves %d outside [1, %d]", c.Waves, MaxChurnWaves)
		}
		if c.Period <= 0 || c.Period > MaxDuration {
			return fail("churn.period %v outside (0, %v]",
				time.Duration(c.Period), time.Duration(MaxDuration))
		}
		if c.Down <= 0 || c.Down > MaxDuration {
			return fail("churn.down %v outside (0, %v]",
				time.Duration(c.Down), time.Duration(MaxDuration))
		}
		if c.From < 0 || c.From > MaxDuration {
			return fail("churn.from %v outside [0, %v]",
				time.Duration(c.From), time.Duration(MaxDuration))
		}
		// The storm's last heal must land within the timestamp bound.
		// Computed in float64 so a near-MaxInt64 period times 10^4 waves
		// can't overflow its way past the check.
		end := float64(c.From) + float64(c.Waves-1)*float64(c.Period) + float64(c.Down)
		if end > float64(MaxDuration) {
			return fail("churn schedule ends at %g s, beyond the %v bound",
				end/float64(time.Second), time.Duration(MaxDuration))
		}
	}
	if s.RangeM < 0 || s.BufferCap < 0 || s.Duration < 0 {
		return fail("negative override")
	}
	if s.RangeM != 0 && (s.RangeM < MinRangeM || s.RangeM > MaxRangeM) {
		return fail("range_m %g outside the sane [%d, %d] m window", s.RangeM, MinRangeM, MaxRangeM)
	}
	if s.Duration > MaxDuration {
		return fail("duration %v exceeds the %v bound", time.Duration(s.Duration), time.Duration(MaxDuration))
	}
	if s.BufferLifetime < 0 || s.BufferLifetime > MaxDuration {
		return fail("buffer_lifetime %v outside [0, %v]",
			time.Duration(s.BufferLifetime), time.Duration(MaxDuration))
	}
	return nil
}

// Compile validates the spec and lowers it to a runnable world
// configuration. Compilation is pure: equal specs compile to equal
// configs, and all randomness stays behind the config's seed.
func (s Spec) Compile() (world.Config, error) {
	if err := s.Validate(); err != nil {
		return world.Config{}, err
	}
	cfg := world.DefaultConfig(s.Topology.MeanSpeedKmh, s.Traffic.Rate)

	switch s.Topology.Kind {
	case TopoWaypoint:
		cfg.N = s.Topology.N
		cfg.Field = geom.Field{Width: s.Topology.Width, Height: s.Topology.Height}
		cfg.Pause = time.Duration(s.Topology.Pause)
	default:
		cfg.StaticPositions = s.Topology.placements()
		cfg.MaxSpeed = 0
	}

	switch {
	case s.Traffic.Kind == TrafficGossip:
		pushes := s.Traffic.Pushes
		if pushes == 0 {
			pushes = DefaultGossipPushes
		}
		cfg.Gossip = &traffic.GossipConfig{
			Rumors: s.Traffic.Rumors, Rate: s.Traffic.Rate, Pushes: pushes,
		}
		cfg.Flows = []traffic.Flow{} // empty but non-nil: no flow workload
	case len(s.Traffic.Pairs) > 0:
		flows := make([]traffic.Flow, len(s.Traffic.Pairs))
		for i, p := range s.Traffic.Pairs {
			flows[i] = traffic.Flow{
				Src: p.Src, Dst: p.Dst, Rate: s.Traffic.Rate,
				Pattern: s.Traffic.Kind.pattern(),
				On:      time.Duration(s.Traffic.On),
				Off:     time.Duration(s.Traffic.Off),
			}
		}
		cfg.Flows = flows
	default:
		cfg.NumFlows = s.Traffic.Flows
		cfg.FlowPattern = s.Traffic.Kind.pattern()
		cfg.FlowOn = time.Duration(s.Traffic.On)
		cfg.FlowOff = time.Duration(s.Traffic.Off)
	}

	if len(s.Outages) > 0 || s.Churn != nil {
		cfg.Outages = make([]world.Outage, len(s.Outages), len(s.Outages)+churnOutages(s.Churn))
		for i, o := range s.Outages {
			cfg.Outages[i] = world.Outage{
				Node: o.Node, From: time.Duration(o.From), Until: time.Duration(o.Until),
			}
		}
		cfg.Outages = appendChurn(cfg.Outages, s.Churn, s.Topology.NodeCount())
	}

	for _, a := range s.Adversaries {
		switch a.Behavior {
		case AdversaryDrop:
			cfg.Droppers = append(cfg.Droppers, world.Dropper{
				Node: a.Node, Prob: a.DropProb,
				From: time.Duration(a.From), Until: time.Duration(a.Until),
			})
		case AdversaryJam:
			cfg.Jammers = append(cfg.Jammers, world.Jammer{
				Node: a.Node, Rate: a.Rate, Size: a.Size,
				From: time.Duration(a.From), Until: time.Duration(a.Until),
			})
		}
	}

	if s.RangeM > 0 {
		cfg.Channel.Range = s.RangeM
	}
	if s.BufferCap > 0 {
		cfg.Node.BufferCap = s.BufferCap
	}
	if s.BufferLifetime > 0 {
		cfg.Node.BufferLifetime = time.Duration(s.BufferLifetime)
	}
	if s.Duration > 0 {
		cfg.Duration = time.Duration(s.Duration)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg, nil
}

// DefaultGossipPushes is the push budget compiled in when a gossip spec
// leaves pushes zero (each infection forwards to three random targets —
// the classic epidemic fan-out).
const DefaultGossipPushes = 3

// churnOutages counts the individual outages a churn storm expands to.
func churnOutages(c *Churn) int {
	if c == nil {
		return 0
	}
	return c.Nodes * c.Waves
}

// appendChurn expands the churn storm into concrete outages: wave w
// (0-based) starts at From + w×Period and takes down terminals
// (w×Nodes+k) mod n for Down each — a rolling frontier that sweeps the
// whole node set and wraps around.
func appendChurn(out []world.Outage, c *Churn, n int) []world.Outage {
	if c == nil {
		return out
	}
	for w := 0; w < c.Waves; w++ {
		start := time.Duration(c.From) + time.Duration(w)*time.Duration(c.Period)
		for k := 0; k < c.Nodes; k++ {
			out = append(out, world.Outage{
				Node:  (w*c.Nodes + k) % n,
				From:  start,
				Until: start + time.Duration(c.Down),
			})
		}
	}
	return out
}

// placements realizes a static topology's terminal positions. Placement
// is fully deterministic (cluster packing uses a golden-angle sunflower
// spiral, not a random draw), so compilation never consumes randomness.
func (t Topology) placements() []geom.Point {
	switch t.Kind {
	case TopoGrid:
		out := make([]geom.Point, 0, t.Rows*t.Cols)
		for r := 0; r < t.Rows; r++ {
			for c := 0; c < t.Cols; c++ {
				out = append(out, geom.Point{
					X: float64(c) * t.Spacing,
					Y: float64(r) * t.Spacing,
				})
			}
		}
		return out
	case TopoChain:
		out := make([]geom.Point, t.N)
		for i := range out {
			out[i] = geom.Point{X: float64(i) * t.Spacing}
		}
		return out
	case TopoClusters:
		var out []geom.Point
		const golden = 2.399963229728653 // radians
		for _, cl := range t.Clusters {
			for k := 0; k < cl.Count; k++ {
				r := cl.Radius * math.Sqrt((float64(k)+0.5)/float64(cl.Count))
				th := float64(k) * golden
				out = append(out, geom.Point{
					X: cl.X + r*math.Cos(th),
					Y: cl.Y + r*math.Sin(th),
				})
			}
		}
		return out
	case TopoStatic:
		out := make([]geom.Point, len(t.Positions))
		for i, p := range t.Positions {
			out[i] = geom.Point{X: p.X, Y: p.Y}
		}
		return out
	default:
		return nil
	}
}
