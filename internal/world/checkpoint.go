package world

import (
	"encoding/json"
	"errors"
	"fmt"

	"rica/internal/channel"
	"rica/internal/checkpoint"
	"rica/internal/mac"
	"rica/internal/network"
	"rica/internal/routing"
	"rica/internal/sim"
)

// routeExporter is the optional seam a routing agent implements to let
// the capture verify its route table (the Core-based protocols do; the
// link-state baseline's SPT state is derived and not exported).
type routeExporter interface {
	ExportRoutes() []routing.Entry
}

// CaptureState serializes the complete simulation state into checkpoint
// sections, in a fixed order with fixed per-section encodings. It is a
// strict read at an instant boundary: no RNG draws, no lazy advances,
// no cache fills — capturing and then continuing the run is
// bit-identical to never having captured.
//
// A snapshot stores one digest per section returned here, and the
// resume path re-captures in a fresh process after replaying to the same
// instant and compares digests (see the rica package), so every encoder
// here must be a pure function of simulation state with deterministic
// iteration order.
func (w *World) CaptureState() ([]checkpoint.Section, error) {
	if !w.started {
		return nil, errors.New("world: CaptureState before Start")
	}
	rngs, ok := w.Streams.ExportStates()
	if !ok {
		// The stock math/rand fallback is in use (the fast-source replica
		// failed its init self-check on this platform); its internal state
		// cannot be read, so a snapshot could not be verified on resume.
		return nil, errors.New("world: checkpointing unsupported: RNG stream state is not exportable on this platform")
	}

	var secs []checkpoint.Section
	add := func(tag string, payload []byte) {
		secs = append(secs, checkpoint.Section{Tag: tag, Payload: payload})
	}

	add(checkpoint.TagKern, w.encodeKernel())
	add(checkpoint.TagRNGs, encodeRNGs(rngs))
	add(checkpoint.TagMobi, w.encodeMobility())
	add(checkpoint.TagLink, w.encodeLinks())
	add(checkpoint.TagMACs, w.encodeMAC())
	add(checkpoint.TagNode, w.encodeNodes())
	add(checkpoint.TagTraf, w.encodeTraffic())
	obsc, err := w.encodeObs()
	if err != nil {
		return nil, fmt.Errorf("world: capture obs: %w", err)
	}
	add(checkpoint.TagObsC, obsc)
	return secs, nil
}

func (w *World) encodeKernel() []byte {
	st := w.Kernel.ExportState()
	var e checkpoint.Enc
	e.Dur(st.Now)
	e.U64(st.Seq)
	e.U64(st.Executed)
	e.Int(st.Live)
	e.Int(len(st.Events))
	for _, ev := range st.Events {
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.Bool(ev.Cancelled)
		e.Bool(ev.Arg)
		e.Int(ev.A0)
		e.Int(ev.A1)
	}
	return e.Bytes()
}

func encodeRNGs(states []sim.StreamState) []byte {
	var e checkpoint.Enc
	e.Int(len(states))
	for i := range states {
		s := &states[i]
		e.U64(s.ID)
		e.Int(s.Tap)
		e.Int(s.Feed)
		for _, v := range s.Vec {
			e.I64(v)
		}
	}
	return e.Bytes()
}

func (w *World) encodeMobility() []byte {
	var e checkpoint.Enc
	e.Int(len(w.Mobility)) // zero for pinned/static topologies
	for _, n := range w.Mobility {
		leg := n.ExportLeg()
		e.F64(leg.FromX)
		e.F64(leg.FromY)
		e.F64(leg.ToX)
		e.F64(leg.ToY)
		e.Dur(leg.Depart)
		e.Dur(leg.Arrive)
	}
	return e.Bytes()
}

func (w *World) encodeLinks() []byte {
	var e checkpoint.Enc
	count := 0
	w.Model.EachLink(func(int, channel.LinkState) { count++ })
	e.Int(count)
	w.Model.EachLink(func(idx int, st channel.LinkState) {
		e.Int(idx)
		e.Dur(st.Last)
		e.F64(st.Shadow)
		e.F64(st.FI)
		e.F64(st.FQ)
		e.Int(int(st.LastClass))
		e.F64(st.LastD)
		e.F64(st.LastPathLoss)
	})
	return e.Bytes()
}

func (w *World) encodeMAC() []byte {
	var e checkpoint.Enc
	cs := w.Common.ExportState()
	e.Dur(cs.MaxAir)
	e.Int(len(cs.Active))
	for _, t := range cs.Active {
		e.Int(t.From)
		e.Dur(t.Start)
		e.Dur(t.End)
		e.Bool(t.Jam)
		e.U64(t.PktID)
		e.Int(t.PktType)
		e.Int(t.Size)
	}
	encSlots := func(slots []mac.SlotPacket) {
		e.Int(len(slots))
		for _, s := range slots {
			e.Int(s.Slot)
			e.U64(s.PktID)
			e.Int(s.PktType)
			e.Int(s.Size)
		}
	}
	encSlots(cs.Slots)
	encSlots(cs.Deferred)
	xs := w.Data.ExportExchanges()
	e.Int(len(xs))
	for _, x := range xs {
		e.Int(x.Slot)
		e.Int(x.From)
		e.Int(x.To)
		e.Int(x.Tries)
		e.Int(int(x.Class))
		e.Bool(x.Handed)
		e.U64(x.PktID)
		e.Int(x.Size)
	}
	return e.Bytes()
}

func (w *World) encodeNodes() []byte {
	var e checkpoint.Enc
	e.Int(len(w.Nodes))
	for id, nd := range w.Nodes {
		qs := nd.ExportQueues()
		routes := exportAgentRoutes(nd)
		if len(qs) == 0 && routes == nil {
			continue // keep the payload sparse; id prefixes disambiguate
		}
		e.Int(id)
		e.Int(len(qs))
		for _, q := range qs {
			e.Int(q.To)
			e.Bool(q.Busy)
			e.Int(len(q.Items))
			for _, it := range q.Items {
				e.U64(it.PktID)
				e.Dur(it.At)
			}
		}
		e.Int(len(routes))
		for _, r := range routes {
			e.Int(r.Dst)
			e.Int(r.Next)
			e.F64(r.HopCount)
			e.Int(r.GeoHops)
			e.Dur(r.UpdatedAt)
			e.Bool(r.Valid)
		}
	}
	return e.Bytes()
}

func exportAgentRoutes(nd *network.Node) []routing.Entry {
	if ex, ok := nd.Agent().(routeExporter); ok {
		return ex.ExportRoutes()
	}
	return nil
}

func (w *World) encodeTraffic() []byte {
	var e checkpoint.Enc
	e.U64(w.gen.NextID())
	if w.gossip == nil {
		e.Bool(false)
		return e.Bytes()
	}
	e.Bool(true)
	gs := w.gossip.ExportState()
	e.Int(gs.Count)
	e.U64(gs.NextID)
	e.Int(len(gs.Infected))
	for _, b := range gs.Infected {
		e.Bool(b)
	}
	return e.Bytes()
}

func (w *World) encodeObs() ([]byte, error) {
	snap := w.Obs.Snapshot()
	// Pool stats are process-global (shared across concurrent runs);
	// everything else in the snapshot is deterministic per run.
	snap.Pool = nil
	return json.Marshal(&snap)
}

// VerifyExempt reports whether a snapshot section is exempt from the
// resume verification: only the descriptor, which is the recipe itself
// rather than captured state.
func VerifyExempt(tag string) bool { return tag == checkpoint.TagDesc }
