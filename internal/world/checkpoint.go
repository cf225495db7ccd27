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
)

// routeExporter is the optional seam a routing agent implements to let
// the capture verify its route table (the Core-based protocols do; the
// link-state baseline's SPT state is derived and not exported).
type routeExporter interface {
	ExportRoutes() []routing.Entry
}

// CaptureDigests is the snapshot path's capture: the simulation state at
// an instant boundary, as one SHA-256 per state section, in a fixed order
// with fixed per-section encodings. The encoders stream live state into
// the hash — no payload is materialised, whatever the population. It is
// a strict read: no RNG draws, no lazy advances, no cache fills —
// capturing and then continuing the run is bit-identical to never having
// captured.
//
// A snapshot stores exactly these sections, and the resume path
// re-captures in a fresh process after replaying to the same instant and
// compares them (see the rica package), so every encoder here must be a
// pure function of simulation state with deterministic iteration order.
func (w *World) CaptureDigests() ([]checkpoint.Section, error) {
	return w.Capture(checkpoint.NewDigestEnc())
}

// CaptureState is the debugging sink of the same encoding: the full
// payload of every section CaptureDigests hashes (each digest is the
// SHA-256 of the payload here), for diffing a divergence resume has
// named. About a hundred kilobytes for the paper's cell, a megabyte for
// metro-500 at its horizon; nothing on the snapshot path calls it.
func (w *World) CaptureState() ([]checkpoint.Section, error) {
	return w.Capture(new(checkpoint.Enc))
}

// Capture runs the eight section encoders in file order over e, cutting
// a section after each; e.Fed then says how many bytes the capture
// encoded.
func (w *World) Capture(e *checkpoint.Enc) ([]checkpoint.Section, error) {
	if !w.started {
		return nil, errors.New("world: capture before Start")
	}
	secs := make([]checkpoint.Section, 0, 8)
	cut := func(tag string) {
		secs = append(secs, checkpoint.Section{Tag: tag, Payload: e.Cut()})
	}
	w.encodeKernel(e)
	cut(checkpoint.TagKern)
	w.encodeRNGs(e)
	cut(checkpoint.TagRNGs)
	w.encodeMobility(e)
	cut(checkpoint.TagMobi)
	w.encodeLinks(e)
	cut(checkpoint.TagLink)
	w.encodeMAC(e)
	cut(checkpoint.TagMACs)
	w.encodeNodes(e)
	cut(checkpoint.TagNode)
	w.encodeTraffic(e)
	cut(checkpoint.TagTraf)
	if err := w.encodeObs(e); err != nil {
		return nil, fmt.Errorf("world: capture obs: %w", err)
	}
	cut(checkpoint.TagObsC)
	return secs, nil
}

func (w *World) encodeKernel(e *checkpoint.Enc) {
	st := w.Kernel.ExportState()
	e.Dur(st.Now)
	e.U64(st.Seq)
	e.U64(st.Executed)
	e.Int(st.Live)
	e.Int(len(st.Events))
	for _, ev := range st.Events {
		e.Dur(ev.At)
		e.U64(ev.Seq)
		e.Bool(ev.Arg)
		e.Int(ev.A0)
		e.Int(ev.A1)
	}
}

// encodeRNGs witnesses every stream by (id, draws): DESC pins the trial
// seed and the id the stream's own, so the count names the generator's
// whole state. The values drawn are witnessed where they land (LINK,
// MOBI, MACS, TRAF).
func (w *World) encodeRNGs(e *checkpoint.Enc) {
	e.Int(w.Streams.Len())
	w.Streams.EachState(func(id, draws uint64) {
		e.U64(id)
		e.U64(draws)
	})
}

func (w *World) encodeMobility(e *checkpoint.Enc) {
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
}

func (w *World) encodeLinks(e *checkpoint.Enc) {
	e.Int(w.Model.LinkCount())
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
}

func (w *World) encodeMAC(e *checkpoint.Enc) {
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
}

func (w *World) encodeNodes(e *checkpoint.Enc) {
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
}

func exportAgentRoutes(nd *network.Node) []routing.Entry {
	if ex, ok := nd.Agent().(routeExporter); ok {
		return ex.ExportRoutes()
	}
	return nil
}

func (w *World) encodeTraffic(e *checkpoint.Enc) {
	e.U64(w.gen.NextID())
	if w.gossip == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	gs := w.gossip.ExportState()
	e.Int(gs.Count)
	e.U64(gs.NextID)
	e.Int(len(gs.Infected))
	for _, b := range gs.Infected {
		e.Bool(b)
	}
}

func (w *World) encodeObs(e *checkpoint.Enc) error {
	snap := w.Obs.Snapshot()
	// The effort counters say how the channel layer computed its answers,
	// which an optimisation may change; everything else in the snapshot
	// is deterministic per run and equal across binaries of one format.
	snap.ZeroEffort()
	js, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	e.Raw(js)
	return nil
}

// VerifyExempt reports whether a snapshot section is exempt from the
// resume verification: only the descriptor, which is the recipe itself
// rather than captured state.
func VerifyExempt(tag string) bool { return tag == checkpoint.TagDesc }
