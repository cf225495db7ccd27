package traffic

import (
	"math/rand"
	"time"

	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/sim"
)

// GossipConfig describes an epidemic push-dissemination workload: Rumors
// distinct rumors are seeded at random origin terminals at t = 0, and
// every terminal that learns a rumor pushes it to Pushes uniformly random
// targets, one push per exponential gap at Rate pushes/s. Unlike the
// fixed-pair flow workload, the source set *grows* with the epidemic —
// each infection turns a bystander into a sender with fresh random
// destinations, which is the flood-heaviest shape on-demand route
// discovery can face.
type GossipConfig struct {
	// Rumors is how many independent epidemics to seed.
	Rumors int
	// Rate is each infected terminal's push rate in pushes/s per rumor.
	Rate float64
	// Pushes is each infected terminal's push budget per rumor.
	Pushes int
}

// gossipRumorBase offsets the BroadcastID field on gossip data packets:
// rumor r travels with BroadcastID r+1, so flow-generated data (which
// leaves the field zero) can never alias rumor 0.
const gossipRumorBase = 1

// Gossip drives one epidemic workload. Construct with NewGossip, hand it
// to the world's observation seam (which feeds Delivered), Bind the node
// set once terminals exist, and Start it alongside the flow generator.
type Gossip struct {
	kernel *sim.Kernel
	rng    *rand.Rand
	obs    *obs.Registry
	cfg    GossipConfig
	nodes  []*network.Node
	stop   time.Duration
	nextID uint64

	// infected[r][i] records whether terminal i knows rumor r. Infection
	// is monotone: a terminal never forgets, re-receipts are no-ops.
	infected [][]bool
	count    int
}

// gossipIDBase keeps gossip packet IDs disjoint from the flow
// generator's (which count up from 1), so a mixed workload never issues
// the same data-packet ID twice in one run.
const gossipIDBase = 1 << 40

// NewGossip builds an idle gossip workload. rng must be a dedicated
// deterministic stream: every origin draw, push gap, and target draw
// comes from it, in event order.
func NewGossip(kernel *sim.Kernel, cfg GossipConfig, rng *rand.Rand, reg *obs.Registry) *Gossip {
	return &Gossip{kernel: kernel, rng: rng, obs: reg, cfg: cfg, nextID: gossipIDBase}
}

// Bind attaches the terminal set (a second phase, because the world
// builds its observation seam — which feeds deliveries into this gossip —
// before it builds the nodes that report to the seam).
func (g *Gossip) Bind(nodes []*network.Node) { g.nodes = nodes }

// Start seeds every rumor at a random origin at the current instant and
// lets the epidemic run until stop.
func (g *Gossip) Start(stop time.Duration) {
	g.stop = stop
	n := len(g.nodes)
	g.infected = make([][]bool, g.cfg.Rumors)
	for r := range g.infected {
		g.infected[r] = make([]bool, n)
	}
	now := g.kernel.Now()
	for r := 0; r < g.cfg.Rumors; r++ {
		g.infect(r, g.rng.Intn(n), now)
	}
}

// Delivered is the observation-seam hook: a data packet reached its
// destination; if it carries a rumor, the destination is now infected
// and starts pushing. Non-gossip data (BroadcastID zero, or a rumor
// index this workload never seeded) passes through untouched.
func (g *Gossip) Delivered(pkt *packet.Packet, now time.Duration) {
	if pkt.Type != packet.TypeData || pkt.BroadcastID < gossipRumorBase {
		return
	}
	r := int(pkt.BroadcastID) - gossipRumorBase
	if r >= len(g.infected) {
		return
	}
	g.infect(r, pkt.Dst, now)
}

// Infected reports how many terminal × rumor infections have occurred —
// the epidemic's coverage (origins included).
func (g *Gossip) Infected() int { return g.count }

// infect marks (rumor, terminal) infected and spawns its pusher. A
// re-infection is a no-op, so each terminal pushes each rumor at most
// Pushes times no matter how many copies reach it.
func (g *Gossip) infect(rumor, node int, now time.Duration) {
	if g.infected[rumor][node] {
		return
	}
	g.infected[rumor][node] = true
	g.count++
	g.obs.Inc(obs.CGossipInfections)
	if g.cfg.Pushes < 1 || g.cfg.Rate <= 0 || now >= g.stop {
		return
	}
	p := &pusher{g: g, rumor: rumor, node: node, left: g.cfg.Pushes}
	p.fire = p.tick
	g.kernel.Schedule(g.gap(), p.fire)
}

// gap draws the exponential delay until a pusher's next push.
func (g *Gossip) gap() time.Duration {
	return time.Duration(g.rng.ExpFloat64() / g.cfg.Rate * float64(time.Second))
}

// pusher is one infected (terminal, rumor) pair working through its push
// budget. One bound handler per infection — allocation scales with the
// epidemic's coverage, not its packet count.
type pusher struct {
	g     *Gossip
	rumor int
	node  int
	left  int
	fire  sim.Handler
}

// tick pushes the rumor to one uniformly random other terminal and
// re-arms while budget remains.
func (p *pusher) tick(now time.Duration) {
	g := p.g
	if now >= g.stop {
		return
	}
	target := g.rng.Intn(len(g.nodes) - 1)
	if target >= p.node {
		target++
	}
	g.nextID++
	pkt := g.nodes[p.node].NewPacket()
	pkt.Type = packet.TypeData
	pkt.ID = g.nextID
	pkt.Src = p.node
	pkt.Dst = target
	pkt.Size = packet.SizeData
	pkt.CreatedAt = now
	pkt.BroadcastID = uint32(p.rumor + gossipRumorBase)
	g.obs.Inc(obs.CTrafficGenerated)
	g.nodes[p.node].OriginateData(pkt, now)
	p.left--
	if p.left > 0 {
		g.kernel.Schedule(g.gap(), p.fire)
	}
}

// GossipState is the serializable epidemic state: the infection count,
// the rumor-payload id cursor, and the flattened infection bitmap
// (rumor-major). Checkpoint verification compares it across processes.
type GossipState struct {
	Count    int
	NextID   uint64
	Infected []bool
}

// ExportState snapshots the epidemic without touching its RNG.
func (g *Gossip) ExportState() GossipState {
	st := GossipState{Count: g.count, NextID: g.nextID}
	for _, row := range g.infected {
		st.Infected = append(st.Infected, row...)
	}
	return st
}
