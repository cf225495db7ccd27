// Package protocol names the five routing protocols the paper compares
// and builds each one's agents. It is a leaf over the routing packages
// and world, so the batch engine, the daemon, the figure harness and the
// public API all select protocols through it without importing each
// other.
package protocol

import (
	"fmt"

	"rica/internal/network"
	"rica/internal/routing/abr"
	"rica/internal/routing/aodv"
	"rica/internal/routing/bgca"
	"rica/internal/routing/linkstate"
	"rica/internal/routing/rica"
	"rica/internal/world"
)

// Protocol selects one of the five compared routing protocols.
type Protocol int

// The five protocols of the paper's comparison.
const (
	RICA Protocol = iota + 1
	BGCA
	AODV
	ABR
	LinkState
)

var protocolNames = map[Protocol]string{
	RICA:      "RICA",
	BGCA:      "BGCA",
	AODV:      "AODV",
	ABR:       "ABR",
	LinkState: "LinkState",
}

// String names the protocol as in the paper's legends.
func (p Protocol) String() string {
	if s, ok := protocolNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol resolves a case-sensitive protocol name.
func ParseProtocol(name string) (Protocol, error) {
	for p, s := range protocolNames {
		if s == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("protocol: unknown protocol %q", name)
}

// AllProtocols lists the paper's comparison set in its plotting order.
func AllProtocols() []Protocol {
	return []Protocol{AODV, RICA, BGCA, ABR, LinkState}
}

// Factory returns the world.AgentFactory for p. rate is the per-flow
// offered load in packets/s; BGCA derives its bandwidth-guard requirement
// from it.
func Factory(p Protocol, rate float64) world.AgentFactory {
	switch p {
	case RICA:
		return func(env network.Env, _ *world.World, _ int) network.Agent {
			return rica.New(env, rica.DefaultConfig())
		}
	case BGCA:
		return func(env network.Env, _ *world.World, _ int) network.Agent {
			return bgca.New(env, bgca.DefaultConfig(rate))
		}
	case AODV:
		return func(env network.Env, _ *world.World, _ int) network.Agent {
			return aodv.New(env)
		}
	case ABR:
		return func(env network.Env, _ *world.World, _ int) network.Agent {
			return abr.New(env, abr.DefaultConfig())
		}
	case LinkState:
		return func(env network.Env, w *world.World, _ int) network.Agent {
			return linkstate.New(env, linkstate.DefaultConfig(), w.BootTopology())
		}
	default:
		panic(fmt.Sprintf("protocol: Factory(%v)", p))
	}
}
