// Package world assembles a complete simulation: mobility trajectories,
// the fading channel, both MAC planes, the per-terminal network runtime,
// one routing agent per terminal, the Poisson workload, and a metrics
// collector. It is the integration point the experiment harness, the
// protocol integration tests, and the examples all build on.
package world

import (
	"errors"
	"time"

	"rica/internal/channel"
	"rica/internal/energy"
	"rica/internal/geom"
	"rica/internal/mac"
	"rica/internal/metrics"
	"rica/internal/mobility"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/sim"
	"rica/internal/timeseries"
	"rica/internal/trace"
	"rica/internal/traffic"
)

// Stream namespaces for the deterministic per-component RNGs.
const (
	streamKindMobility = 0x_30B1
	streamKindMAC      = 0x_3AC0
	streamKindNode     = 0x_40DE
	streamKindPairs    = 0x_9A12
	streamKindGossip   = 0x_605C
)

// Config describes one simulation run. DefaultConfig returns the paper's
// §III.A environment.
type Config struct {
	// N is the number of terminals (paper: 50).
	N int
	// Field is the roaming rectangle (paper: 1000 m × 1000 m).
	Field geom.Field
	// MaxSpeed is MAXSPEED in m/s: per-leg speeds are uniform in
	// [0, MaxSpeed], so the mean speed is MaxSpeed/2. The paper's x-axes
	// plot the mean.
	MaxSpeed float64
	// Pause is the waypoint dwell time (paper: 3 s).
	Pause time.Duration
	// Channel is the fading/quantizer calibration.
	Channel channel.Config
	// Node holds the buffer discipline (cap 10, lifetime 3 s).
	Node network.NodeConfig
	// Flows is the workload; when nil, NumFlows disjoint random pairs at
	// FlowRate packets/s are drawn per trial, each using FlowPattern (with
	// the FlowOn/FlowOff burst cycle for on-off sources).
	Flows       []traffic.Flow
	NumFlows    int
	FlowRate    float64
	FlowPattern traffic.Pattern
	FlowOn      time.Duration
	FlowOff     time.Duration
	// Outages silence terminal radios over scripted windows: while down, a
	// terminal neither sends nor receives on either MAC plane, and heals
	// back into the network when its window ends.
	Outages []Outage
	// Gossip, when non-nil, runs an epidemic push-dissemination workload
	// alongside the flow workload (set Flows to an empty non-nil slice to
	// run gossip alone). Deliveries feed infection state through the
	// observation seam, so the sender set grows as the epidemic spreads.
	Gossip *traffic.GossipConfig
	// Jammers plants adversarial interferers on the common channel: each
	// puts periodic noise bursts on the air with no carrier sense and no
	// delivery, deafening CSMA/CA around itself (see mac.Jam).
	Jammers []Jammer
	// Droppers makes terminals byzantine: transit data is silently
	// discarded with the given probability while the terminal keeps
	// routing honestly (see network.Node.SetAdversary).
	Droppers []Dropper
	// Duration is the simulated time (paper: 500 s).
	Duration time.Duration
	// Seed selects the trial's random universe; every stochastic component
	// derives its stream from it.
	Seed int64
	// StaticPositions, when non-nil, pins every terminal to a scripted
	// location (N is overridden to its length and MaxSpeed to zero).
	// Failure-injection and topology-specific tests use this to build
	// partitions, chains, and grids deterministically.
	StaticPositions []geom.Point
	// Trace, when non-nil, receives the run's packet-level event history
	// (bounded by the recorder's capacity).
	Trace *trace.Recorder
	// Timeseries, when non-nil, receives the run's interval-bucketed
	// telemetry: data-plane lifecycle events, control-channel and ACK
	// transmissions, and route-table churn all flow into it alongside the
	// aggregate metrics collector.
	Timeseries *timeseries.Collector
	// Obs, when non-nil, is the observability registry every subsystem
	// counts into; when nil, New creates a private one so counters are
	// always live (they are plain increments into fixed slots — too cheap
	// to gate). The world's goroutine is the registry's only writer; the
	// kernel publishes it for hubs on other goroutines. The registry never
	// feeds back into the simulation, so the event order and every RNG
	// stream are identical with or without an external registry attached.
	Obs *obs.Registry
	// Stop, once closed, ends RunTo at the kernel's next instant boundary
	// (see sim.Kernel.SetStop). Like Obs it never feeds back into the
	// simulation: a run that is not stopped dispatches the events it would
	// without one.
	Stop <-chan struct{}
}

// ErrInterrupted is the one error a run ended by a closed Config.Stop
// wraps: the single run (rica.Run, rica.Resume) and the grid (batch.Run)
// both return it.
var ErrInterrupted = errors.New("rica: run interrupted")

// DefaultConfig returns the paper's simulation environment with the given
// mean mobile speed (km/h, the figures' x-axis) and traffic load
// (packets/s per flow).
func DefaultConfig(meanSpeedKmh, pktPerSec float64) Config {
	return Config{
		N:        50,
		Field:    geom.Field{Width: 1000, Height: 1000},
		MaxSpeed: mobility.KmhToMs(2 * meanSpeedKmh), // uniform [0, MAX] has mean MAX/2
		Pause:    3 * time.Second,
		Channel:  channel.DefaultConfig(),
		Node:     network.DefaultNodeConfig(),
		NumFlows: 10,
		FlowRate: pktPerSec,
		Duration: 500 * time.Second,
		Seed:     1,
	}
}

// Outage is one scripted radio failure: terminal Node is down (radio
// silent on both MAC planes) during [From, Until), healing at Until.
type Outage struct {
	Node        int
	From, Until time.Duration
}

// Jammer is one adversarial interferer: terminal Node emits a Size-byte
// noise burst on the common channel every 1/Rate seconds during
// [From, Until). Zero Until means the whole run; zero Size selects
// packet.SizeJam.
type Jammer struct {
	Node        int
	Rate        float64
	Size        int
	From, Until time.Duration
}

// Dropper is one byzantine terminal: during [From, Until) it silently
// discards transit data with probability Prob while routing honestly.
// Zero Until means the whole run.
type Dropper struct {
	Node        int
	Prob        float64
	From, Until time.Duration
}

// AgentFactory builds terminal id's routing agent around its Env. The
// *World gives protocols that need global boot-time information (the
// link-state protocol's installed topology) access to it.
type AgentFactory func(env network.Env, w *World, id int) network.Agent

// World is one fully wired simulation instance.
type World struct {
	Cfg       Config
	Kernel    *sim.Kernel
	Streams   *sim.Streams
	Mobility  []*mobility.Node
	Model     *channel.Model
	Common    *mac.CommonChannel
	Data      *mac.DataPlane
	Nodes     []*network.Node
	Collector *metrics.Collector
	Meter     *energy.Meter
	Flows     []traffic.Flow
	Obs       *obs.Registry

	topo0   *routing.Graph  // lazily built boot topology snapshot
	gossip  *traffic.Gossip // nil unless cfg.Gossip is set
	jammers []*jamRunner    // one per cfg.Jammers entry

	gen     *traffic.Generator // workload, kept for checkpoint capture
	started bool
}

// New assembles a world. Construction is deterministic in cfg.Seed.
func New(cfg Config, factory AgentFactory) *World {
	kernel := sim.NewKernel()
	streams := sim.NewStreams(cfg.Seed)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Node.Obs = reg // nodes expose it to their routing agents
	cfg.Node.Packets = packet.NewArena()
	kernel.SetObs(reg)
	kernel.SetStop(cfg.Stop)

	var mob []*mobility.Node
	var pos []channel.Positioner
	if cfg.StaticPositions != nil {
		cfg.N = len(cfg.StaticPositions)
		pos = make([]channel.Positioner, cfg.N)
		for i, p := range cfg.StaticPositions {
			pos[i] = pinned(p)
		}
	} else {
		mob = make([]*mobility.Node, cfg.N)
		pos = make([]channel.Positioner, cfg.N)
		mcfg := mobility.Config{Field: cfg.Field, MaxSpeed: cfg.MaxSpeed, Pause: cfg.Pause}
		for i := range mob {
			mob[i] = mobility.NewNode(mcfg, streams.StreamAt(streamKindMobility, uint64(i)))
			pos[i] = mob[i]
		}
	}

	model := channel.NewModel(cfg.Channel, streams, pos)
	model.SetObs(reg)
	if len(cfg.Outages) > 0 {
		// Per-terminal windows so the hot-path oracle scans only the few
		// outages that concern the queried terminal.
		windows := make([][]Outage, cfg.N)
		for _, o := range cfg.Outages {
			if o.Node < 0 || o.Node >= cfg.N {
				panic("world: outage for unknown terminal")
			}
			windows[o.Node] = append(windows[o.Node], o)
		}
		model.SetOutage(func(i int, at time.Duration) bool {
			for _, o := range windows[i] {
				if at >= o.From && at < o.Until {
					return true
				}
			}
			return false
		})
	}
	common := mac.NewCommonChannel(kernel, model, streams.Stream(streamKindMAC))
	common.SetObs(reg)
	data := mac.NewDataPlane(kernel, model)
	collector := metrics.NewCollector(cfg.Duration)
	meter := energy.NewMeter()
	var gossip *traffic.Gossip
	if cfg.Gossip != nil {
		gossip = traffic.NewGossip(kernel, *cfg.Gossip, streams.Stream(streamKindGossip), reg)
	}
	seam := &observers{
		gossip:    gossip,
		reg:       reg,
		collector: collector,
		meter:     meter,
		trace:     cfg.Trace,
		series:    cfg.Timeseries,
	}
	common.OnTransmit = seam.ControlTransmitted
	common.OnDropped = seam.ControlDropped
	data.OnAck = seam.AckTransmitted
	data.OnDataTransmit = seam.DataTransmitted

	w := &World{
		Cfg:       cfg,
		Kernel:    kernel,
		Streams:   streams,
		Mobility:  mob,
		Model:     model,
		Common:    common,
		Data:      data,
		Collector: collector,
		Meter:     meter,
		Obs:       reg,
		gossip:    gossip,
	}
	for _, j := range cfg.Jammers {
		if j.Node < 0 || j.Node >= cfg.N {
			panic("world: jammer on unknown terminal")
		}
		if j.Rate <= 0 {
			continue
		}
		if j.Size <= 0 {
			j.Size = packet.SizeJam
		}
		if j.Until <= 0 {
			j.Until = cfg.Duration
		}
		r := &jamRunner{w: w, j: j, period: time.Duration(float64(time.Second) / j.Rate)}
		r.fire = r.tick
		w.jammers = append(w.jammers, r)
	}

	w.Nodes = make([]*network.Node, cfg.N)
	for i := 0; i < cfg.N; i++ {
		nd := network.NewNode(i, kernel, common, data, model,
			streams.StreamAt(streamKindNode, uint64(i)), seam, cfg.Node)
		w.Nodes[i] = nd
	}
	// Agents are attached in a second pass so factories may inspect the
	// fully built world (e.g. the boot topology snapshot).
	for i, nd := range w.Nodes {
		nd.SetAgent(factory(nd, w, i))
	}
	if gossip != nil {
		gossip.Bind(w.Nodes)
	}
	for _, d := range cfg.Droppers {
		if d.Node < 0 || d.Node >= cfg.N {
			panic("world: dropper on unknown terminal")
		}
		until := d.Until
		if until <= 0 {
			until = cfg.Duration
		}
		w.Nodes[d.Node].SetAdversary(d.Prob, d.From, until)
	}

	w.Flows = cfg.Flows
	if w.Flows == nil {
		w.Flows = traffic.ChoosePairs(cfg.N, cfg.NumFlows, cfg.FlowRate,
			streams.Stream(streamKindPairs))
		for i := range w.Flows {
			w.Flows[i].Pattern = cfg.FlowPattern
			w.Flows[i].On = cfg.FlowOn
			w.Flows[i].Off = cfg.FlowOff
		}
	}
	return w
}

// Gossip exposes the run's epidemic workload (nil unless Config.Gossip
// was set) — tests and diagnostics read its infection coverage.
func (w *World) Gossip() *traffic.Gossip { return w.gossip }

// BootTopology snapshots the channel graph at t = 0 with CSI hop-distance
// weights — the "accurate view of the network topology installed in each
// mobile terminal" the paper gives the link-state protocol. The snapshot
// is computed once and shared (it is read-only to agents by convention).
// It is a survey: each terminal's neighbourhood scan, then the class of
// each link toward a neighbour above it, so every pair in range is
// measured once, in row-major (i, j) order.
func (w *World) BootTopology() *routing.Graph {
	if w.topo0 != nil {
		return w.topo0
	}
	g := routing.NewGraph(w.Cfg.N)
	var nbuf []int
	for i := 0; i < w.Cfg.N; i++ {
		nbuf = w.Model.Neighbors(i, 0, nbuf[:0])
		for _, j := range nbuf {
			if j < i {
				continue
			}
			if c := w.Model.Class(i, j, 0); c.Usable() {
				g.SetEdge(i, j, c.HopDistance())
			}
		}
	}
	w.topo0 = g
	return w.topo0
}

// Run starts every terminal and the workload, executes the simulation to
// the configured horizon, and returns the metrics summary. After the
// horizon every packet still parked in a MAC slot, link queue, query
// buffer, or jittered relay is silently drained back to the world's
// arena, so a summary whose PacketsLeaked is not zero has found a genuine
// leak (invariant.CheckSummary's zero-leak law).
//
// Run is the composition Start → RunTo(horizon) → Finish for a world
// without a Stop; stoppable and checkpointed runs call the pieces
// directly so they can end or capture at instant boundaries in between.
// Chunking RunTo never changes results: the kernel queue orders strictly
// by (at, seq), so Run(t₁); Run(t₂) dispatches the identical sequence one
// Run(t₂) would.
func (w *World) Run() metrics.Summary {
	w.Start()
	w.RunTo(w.Cfg.Duration)
	return w.Finish()
}

// Start boots every terminal, the flow/gossip workloads, and the
// scripted jammers. It must be called exactly once, before RunTo.
func (w *World) Start() {
	if w.started {
		panic("world: Start called twice")
	}
	w.started = true
	for _, nd := range w.Nodes {
		nd.Start()
	}
	gen := traffic.NewGenerator(w.Kernel, w.Nodes)
	gen.Obs = w.Obs
	gen.Start(w.Flows, w.Streams, w.Cfg.Duration)
	w.gen = gen
	if w.gossip != nil {
		w.gossip.Start(w.Cfg.Duration)
	}
	for _, j := range w.jammers {
		w.Kernel.Schedule(j.j.From, j.fire)
	}
}

// RunTo executes the simulation up to virtual time t (an instant
// boundary: every event at or before t has dispatched when it returns,
// and no fan-out is in flight) and reports true. It reports false when
// Config.Stop closed first: the world then rests at the earlier instant
// boundary Kernel.Now(), which a capture may record. Calls must be
// non-decreasing in t.
func (w *World) RunTo(t time.Duration) bool {
	return w.Kernel.Run(t)
}

// Finish drains the in-flight population back to the arena and
// assembles the metrics summary. Call once, after RunTo reached the
// configured horizon.
func (w *World) Finish() metrics.Summary {
	// The drain splits data from control: the data count is exactly the
	// end-to-end packets still in flight at the horizon, the conservation
	// check's missing term (generated == delivered + dropped + in-flight).
	dataDrained := 0
	// Exchanges caught inside their ACK window have already handed their
	// packet to the receiver; the sender's queue head is a stale alias
	// that must be discarded, not released (a release here would double
	// free the pooled packet and double count the conservation ledger).
	w.Data.EachHandedOff(func(from, to int) { w.Nodes[from].DiscardStaleHead(to) })
	ctlDrained := w.Common.Drain()
	for _, nd := range w.Nodes {
		d, c := nd.Drain()
		dataDrained += d
		ctlDrained += c
	}
	w.Obs.Add(obs.CDrainReleased, uint64(dataDrained+ctlDrained))
	w.Obs.Add(obs.CDrainData, uint64(dataDrained))
	s := w.Collector.Summary()
	s.Energy = w.Meter.Stats(s.GoodputBps * w.Cfg.Duration.Seconds())
	s.Events = w.Kernel.Executed()
	s.PacketsLeaked = w.Cfg.Node.Packets.Live()
	snap := w.Obs.Snapshot()
	s.Obs = &snap
	return s
}

// Retire hands the 607-word vectors of the world's streams — fading
// links' and components' alike — to the worlds this process builds
// after it (sim.Streams.Retire): a batch worker running short cells one
// after another then reuses that memory instead of allocating and
// collecting it again every cell. The world must not be used again; a
// batch cell retires its world once Finish has returned.
func (w *World) Retire() { w.Streams.Retire() }

// jamRunner drives one Jammer's periodic noise bursts. One bound handler
// per jammer, one arena packet per burst (recycled when the burst
// leaves the air), so an always-on jammer costs the allocator nothing in
// steady state.
type jamRunner struct {
	w      *World
	j      Jammer
	period time.Duration
	fire   sim.Handler
}

// tick puts one burst on the air and re-arms until the window closes.
func (r *jamRunner) tick(now time.Duration) {
	if now >= r.j.Until {
		return
	}
	pkt := r.w.Nodes[r.j.Node].NewPacket()
	pkt.Type = packet.TypeJam
	pkt.Src = r.j.Node
	pkt.From = r.j.Node
	pkt.To = packet.Broadcast
	pkt.Size = r.j.Size
	pkt.CreatedAt = now
	r.w.Common.Jam(pkt)
	r.w.Kernel.Schedule(r.period, r.fire)
}

// pinned is the channel.Mover of a scripted static terminal: it never
// moves, so the channel snapshot layer derives it once and never
// rebuilds a grid for it.
type pinned geom.Point

// Both kinds of terminal a world builds are Movers. The channel finds
// that out by type assertion, where a drifted method still compiles;
// these guards fail the build instead, and
// TestGridRebuildsFollowTheSpeedBound holds the assertion at run time.
var (
	_ channel.Mover = (*mobility.Node)(nil)
	_ channel.Mover = pinned{}
)

// Position implements channel.Positioner.
func (p pinned) Position(time.Duration) geom.Point { return geom.Point(p) }

// PositionStable implements channel.Mover: here, forever.
func (p pinned) PositionStable(time.Duration) (geom.Point, time.Duration) {
	return geom.Point(p), mobility.StableForever
}

// SpeedStable implements channel.Mover: at rest, forever.
func (p pinned) SpeedStable(time.Duration) (float64, time.Duration) {
	return 0, mobility.StableForever
}

// SpeedLimit implements channel.Mover.
func (p pinned) SpeedLimit() float64 { return 0 }
