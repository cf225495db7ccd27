// Command layers is the benchmark's in-process ledger: it calls each
// layer's exported functions directly, with a span around every group of
// calls, and prints one JSON object with the per-layer metrics and the
// spans. It is the only part of the benchmark that imports the program
// under test, so the harness runs it as a subprocess and carries on
// without it when a refactor stops it building.
//
// Everything runs on one goroutine, one world at a time: the numbers
// are per-call costs at a stated size, not throughput under load.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rica/benchmark/span"
	"rica/internal/batch"
	"rica/internal/channel"
	"rica/internal/checkpoint"
	"rica/internal/durable"
	"rica/internal/experiment"
	"rica/internal/geom"
	"rica/internal/mac"
	"rica/internal/mobility"
	"rica/internal/network"
	"rica/internal/obs"
	"rica/internal/packet"
	"rica/internal/routing"
	"rica/internal/routing/abr"
	"rica/internal/routing/aodv"
	"rica/internal/routing/bgca"
	"rica/internal/routing/linkstate"
	ricaagent "rica/internal/routing/rica"
	"rica/internal/routing/routingtest"
	"rica/internal/scenario"
	"rica/internal/sim"
	"rica/internal/timeseries"
	"rica/internal/world"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type ledger struct {
	tr      span.Tracer
	root    int
	metrics map[string]metric
	batch   time.Duration // how long one timed batch of a loop should last
}

func (l *ledger) put(name string, v float64, unit string) {
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// loop times fn(n) under one span: it grows n until a batch lasts
// l.batch, runs three batches and returns the median cost of one call
// in nanoseconds.
func (l *ledger) loop(name string, fn func(n int)) float64 {
	id := l.tr.Start(l.root, name)
	defer l.tr.End(id)
	n := 1
	for {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d >= l.batch || n >= 1<<24 {
			break
		} else if d < l.batch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var per [3]float64
	for i := range per {
		start := time.Now()
		fn(n)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per[:])
	return per[1]
}

func (l *ledger) loopNs(metricName string, fn func(n int)) {
	l.put(metricName, l.loop(metricName, fn), "ns")
}

func (l *ledger) loopUs(metricName string, fn func(n int)) {
	l.put(metricName, l.loop(metricName, fn)/1e3, "us")
}

// once times fn under a span and stores it in milliseconds.
func (l *ledger) once(parent int, metricName string, fn func()) time.Duration {
	id := l.tr.Start(parent, metricName)
	fn()
	d := l.tr.End(id)
	l.put(metricName, ms(d), "ms")
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func main() {
	seed := flag.Int64("seed", 1, "seed of every world and stream the ledger builds")
	dir := flag.String("dir", "", "directory for the files the durable and batch rows write")
	quick := flag.Bool("quick", false, "short batches and 2 s horizons")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "layers: -dir is required")
		os.Exit(2)
	}
	l := &ledger{tr: span.Tracer{Cell: "layers"}, metrics: map[string]metric{}, batch: 15 * time.Millisecond}
	horizon, gridHorizon, captureAt := 20*time.Second, 5*time.Second, 60*time.Second
	if *quick {
		l.batch = 2 * time.Millisecond
		horizon, gridHorizon, captureAt = 2*time.Second, 2*time.Second, 2*time.Second
	}
	l.root = l.tr.Start(0, "layers")
	l.kernel(*seed)
	l.geometry(*seed)
	l.macPlane(*seed)
	l.routing()
	l.telemetry()
	l.worldRun(*seed, horizon)
	if err := l.checkpoint(*seed, captureAt, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if err := l.batchGrid(*seed, gridHorizon, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	l.tr.End(l.root)
	out := struct {
		Metrics map[string]metric `json:"metrics"`
		Spans   []span.Span       `json:"spans"`
	}{l.metrics, l.tr.Spans}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func (l *ledger) kernel(seed int64) {
	nop := func(time.Duration, int, int) {}
	k := sim.NewKernel()
	l.loopNs("sim.schedule_dispatch_ns", func(n int) {
		for i := 0; i < n; i++ {
			k.ScheduleArg(time.Duration(i%97)*time.Millisecond, nop, i, 0)
			if i%1024 == 1023 {
				k.RunAll()
			}
		}
		k.RunAll()
	})
	streams := sim.NewStreams(seed)
	var sink uint64
	l.loopNs("sim.stream_seed_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += streams.StreamAt(0x51, uint64(i)).Uint64()
		}
	})
	_ = sink
}

// field scales the roaming square with n so that density stays at the
// paper's 50 terminals per km²: a neighbourhood holds the same number
// of terminals at every n, and only the number of them grows.
func field(n int) geom.Field {
	side := 1000 * math.Sqrt(float64(n)/50)
	return geom.Field{Width: side, Height: side}
}

func waypointModel(seed int64, n int) (*channel.Model, *sim.Streams) {
	streams := sim.NewStreams(seed)
	mcfg := mobility.Config{Field: field(n), MaxSpeed: 10, Pause: 3 * time.Second}
	pos := make([]channel.Positioner, n)
	for i := range pos {
		pos[i] = mobility.NewNode(mcfg, streams.StreamAt(0x30B1, uint64(i)))
	}
	return channel.NewModel(channel.DefaultConfig(), streams, pos), streams
}

func (l *ledger) geometry(seed int64) {
	const rangeM = 250
	rng := sim.NewStreams(seed).Stream(0x9e0)
	f := field(500)
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * f.Width, Y: rng.Float64() * f.Height}
	}
	g := geom.NewGrid(rangeM)
	l.loopUs("geom.grid_rebuild_us.n500", func(n int) {
		for i := 0; i < n; i++ {
			g.Rebuild(pts)
		}
	})
	var near []int
	l.loopNs("geom.near_ns.n500", func(n int) {
		for i := 0; i < n; i++ {
			near = g.Near(pts[i%len(pts)], rangeM, near[:0])
		}
	})

	node := mobility.NewNode(mobility.Config{Field: field(50), MaxSpeed: 10, Pause: 3 * time.Second},
		sim.NewStreams(seed).StreamAt(0x30B1, 0))
	at := time.Duration(0)
	var acc float64
	l.loopNs("mobility.position_ns", func(n int) {
		for i := 0; i < n; i++ {
			at += time.Millisecond
			acc += node.Position(at).X
		}
	})
	_ = acc

	for _, n := range []int{50, 500} {
		m, _ := waypointModel(seed, n)
		at := time.Duration(0)
		var buf []int
		l.loopUs(fmt.Sprintf("channel.neighbors_sweep_us.n%d", n), func(reps int) {
			for r := 0; r < reps; r++ {
				at += time.Millisecond
				for j := 0; j < n; j++ {
					buf = m.Neighbors(j, at, buf[:0])
				}
			}
		})
		// Every pair in range at the start, queried once per fresh
		// instant: each call advances that pair's fading link.
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for _, j := range m.Neighbors(i, at, buf[:0]) {
				if j > i {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		var classes int
		l.loopNs(fmt.Sprintf("channel.class_ns.n%d", n), func(calls int) {
			for done := 0; done < calls; {
				at += time.Millisecond
				for _, p := range pairs {
					classes += int(m.Class(p[0], p[1], at))
					if done++; done == calls {
						break
					}
				}
			}
		})
		_ = classes
	}
}

func (l *ledger) macPlane(seed int64) {
	for _, n := range []int{50, 500} {
		k := sim.NewKernel()
		m, streams := waypointModel(seed, n)
		c := mac.NewCommonChannel(k, m, streams.Stream(0x3AC0))
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			c.Register(i, func(pkt *packet.Packet, _ time.Duration) {
				if seen[i] {
					return
				}
				seen[i] = true
				fwd := pkt.Clone()
				fwd.From = i
				c.Send(fwd)
			})
		}
		src := 0
		l.loopUs(fmt.Sprintf("mac.flood_us.n%d", n), func(floods int) {
			for f := 0; f < floods; f++ {
				clear(seen)
				src = (src + 1) % n
				seen[src] = true
				c.Send(&packet.Packet{Type: packet.TypeRREQ, From: src, To: packet.Broadcast,
					Size: packet.SizeOf(packet.TypeRREQ)})
				k.RunAll()
			}
		})
	}

	k := sim.NewKernel()
	streams := sim.NewStreams(seed)
	pair := []channel.Positioner{fixed{X: 0}, fixed{X: 100}}
	d := mac.NewDataPlane(k, channel.NewModel(channel.DefaultConfig(), streams, pair))
	d.Register(1, func(pkt *packet.Packet, _ time.Duration) { pkt.Release() })
	d.Register(0, func(pkt *packet.Packet, _ time.Duration) { pkt.Release() })
	done := func(mac.SendResult) {}
	l.loopNs("mac.data_exchange_ns", func(n int) {
		for i := 0; i < n; i++ {
			pkt := packet.Get()
			pkt.Type, pkt.Src, pkt.Dst, pkt.Size = packet.TypeData, 0, 1, packet.SizeData
			d.Send(0, 1, pkt, done)
			k.RunAll()
		}
	})
	l.loopNs("packet.get_release_ns", func(n int) {
		for i := 0; i < n; i++ {
			packet.Get().Release()
		}
	})
}

type fixed geom.Point

func (p fixed) Position(time.Duration) geom.Point { return geom.Point(p) }

func (l *ledger) routing() {
	h := routing.NewHistory()
	bid := uint32(0)
	l.loopNs("routing.history_first_copy_ns", func(n int) {
		pkt := packet.Packet{Type: packet.TypeRREQ, Dst: 7, From: 3, To: packet.Broadcast}
		for i := 0; i < n; i++ {
			bid++
			pkt.Src, pkt.BroadcastID = int(bid%50), bid>>6
			h.FirstCopy(&pkt, time.Duration(bid))
		}
	})
	t := routing.NewTable(time.Second)
	var hits int
	l.loopNs("routing.table_install_lookup_ns", func(n int) {
		for i := 0; i < n; i++ {
			now := time.Duration(i) * time.Microsecond
			t.Install(i%50, (i+1)%50, 3, 2, now)
			if t.Lookup(i%50, now) != nil {
				hits++
			}
		}
	})
	_ = hits

	for _, n := range []int{50, 500} {
		// A ring with chords: every node has degree ten, the paper-scale
		// neighbourhood, and the graph is connected at every n.
		g := routing.NewGraph(n)
		for u := 0; u < n; u++ {
			for k := 1; k <= 5; k++ {
				g.SetEdge(u, (u+k*7)%n, float64(1+(u+k)%5))
			}
		}
		var next []int
		var dist []float64
		l.loopUs(fmt.Sprintf("routing.spt_us.n%d", n), func(reps int) {
			for r := 0; r < reps; r++ {
				next, dist = g.ShortestPaths(r%n, next, dist)
			}
		})
	}

	agents := []struct {
		name string
		make func(env network.Env) network.Agent
	}{
		{"rica", func(env network.Env) network.Agent { return ricaagent.New(env, ricaagent.DefaultConfig()) }},
		{"bgca", func(env network.Env) network.Agent { return bgca.New(env, bgca.DefaultConfig(10)) }},
		{"aodv", func(env network.Env) network.Agent { return aodv.New(env) }},
		{"abr", func(env network.Env) network.Agent { return abr.New(env, abr.DefaultConfig()) }},
	}
	for _, a := range agents {
		env, agent := unitEnv(a.make)
		bid := uint32(0)
		l.loopNs("routing."+a.name+".handle_rreq_ns", func(n int) {
			for i := 0; i < n; i++ {
				bid++
				// A first copy of a fresh flood at an intermediate terminal:
				// accumulate, record, and schedule the rebroadcast.
				agent.HandleControl(&packet.Packet{Type: packet.TypeRREQ, Src: 1, Dst: 9, From: 2,
					To: packet.Broadcast, Size: packet.SizeRREQ, BroadcastID: bid, HopCount: 2}, env.Now())
				if i%512 == 511 {
					env.Pump(time.Second)
					env.Reset()
				}
			}
			env.Pump(time.Second)
			env.Reset()
		})
	}
	line := routing.NewGraph(10) // the boot topology: terminals 0..9 in a row
	for u := 0; u+1 < 10; u++ {
		line.SetEdge(u, u+1, 2)
	}
	env, agent := unitEnv(func(env network.Env) network.Agent {
		return linkstate.New(env, linkstate.DefaultConfig(), line)
	})
	gen := uint32(0)
	l.loopNs("routing.linkstate.handle_lsa_ns", func(n int) {
		for i := 0; i < n; i++ {
			gen++
			agent.HandleControl(&packet.Packet{Type: packet.TypeLSA, Src: 3, From: 2, To: packet.Broadcast,
				Size: packet.LSASize(2), BroadcastID: gen,
				Payload: []linkstate.LinkEntry{{Neighbor: 4, Cost: float64(1 + gen%5)}, {Neighbor: 6, Cost: 2}}}, env.Now())
			if i%512 == 511 {
				env.Pump(time.Second)
				env.Reset()
			}
		}
		env.Pump(time.Second)
		env.Reset()
	})
}

// unitEnv is terminal 5 of ten, every neighbour at class B.
func unitEnv(mk func(network.Env) network.Agent) (*routingtest.Env, network.Agent) {
	env := routingtest.New(5, 10)
	for j := 0; j < 10; j++ {
		env.Classes[j] = channel.ClassB
	}
	return env, mk(env)
}

func (l *ledger) telemetry() {
	c := timeseries.NewCollector(time.Second, time.Hour)
	pkt := &packet.Packet{Type: packet.TypeData, Src: 0, Dst: 1, Size: packet.SizeData}
	at := time.Duration(0)
	l.loopNs("timeseries.record_ns", func(n int) {
		for i := 0; i < n; i++ {
			at += 50 * time.Microsecond
			pkt.CreatedAt = at - time.Millisecond
			c.DataDelivered(pkt, at)
			if at > 50*time.Minute { // stay inside the collector's horizon
				c, at = timeseries.NewCollector(time.Second, time.Hour), 0
			}
		}
	})
	r := obs.NewRegistry()
	l.loopNs("obs.inc_ns", func(n int) {
		for i := 0; i < n; i++ {
			r.Inc(obs.CEventsDispatched)
		}
	})
}

// paperCell is the paper's field with RICA, the cell the ckpt workloads run.
func paperCell(seed int64, horizon time.Duration) (world.Config, world.AgentFactory, error) {
	spec, err := scenario.ByName("paper-baseline")
	if err != nil {
		return world.Config{}, nil, err
	}
	cfg, err := spec.Compile()
	if err != nil {
		return world.Config{}, nil, err
	}
	cfg.Seed, cfg.Duration = seed, horizon
	return cfg, experiment.Factory(experiment.RICA, spec.Traffic.Rate), nil
}

func (l *ledger) worldRun(seed int64, horizon time.Duration) {
	id := l.tr.Start(l.root, "world")
	defer l.tr.End(id)
	var (
		cfg     world.Config
		factory world.AgentFactory
		w       *world.World
		err     error
	)
	l.once(id, "scenario.compile_ms", func() { cfg, factory, err = paperCell(seed, horizon) })
	if err != nil {
		panic(err) // the catalog is compiled in: a bug, not an input
	}
	l.once(id, "world.build_ms", func() { w = world.New(cfg, factory) })
	l.once(id, "world.start_ms", func() { w.Start() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ran := l.once(id, "world.run_ms", func() { w.RunTo(horizon) })
	runtime.ReadMemStats(&after)
	var events uint64
	l.once(id, "world.finish_ms", func() { events = w.Finish().Events })
	l.put("world.run_ns_per_event", float64(ran.Nanoseconds())/float64(events), "ns")
	l.put("world.run_allocs_per_kevent", float64(after.Mallocs-before.Mallocs)*1000/float64(events), "count")

	l.once(id, "experiment.sweep_ms", func() {
		experiment.Sweep(10, experiment.Options{Speeds: []float64{0, 36, 72}, Trials: 1,
			Duration: horizon, BaseSeed: seed, Parallelism: 1})
	})

	// The same cell with the interval collector on and off, alternating,
	// so drift on the box hits both sides.
	tid := l.tr.Start(id, "timeseries.overhead")
	var ratios []float64
	for i := 0; i < 3; i++ {
		var on, off time.Duration
		for _, collect := range []bool{i%2 == 0, i%2 != 0} {
			c := cfg
			if collect {
				c.Timeseries = timeseries.NewCollector(time.Second, horizon)
			}
			start := time.Now()
			world.New(c, factory).Run()
			if collect {
				on = time.Since(start)
			} else {
				off = time.Since(start)
			}
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	l.tr.End(tid)
	sort.Float64s(ratios)
	l.put("timeseries.overhead_ratio", ratios[1], "ratio")
}

func (l *ledger) checkpoint(seed int64, at time.Duration, dir string) error {
	id := l.tr.Start(l.root, "checkpoint")
	defer l.tr.End(id)
	cfg, factory, err := paperCell(seed, at+time.Second)
	if err != nil {
		return err
	}
	w := world.New(cfg, factory)
	w.Start()
	w.RunTo(at)

	var secs []checkpoint.Section
	l.once(id, "world.capture_ms", func() { secs, err = w.CaptureState() })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	wrote := l.once(id, "checkpoint.write_ms", func() { err = checkpoint.Write(&buf, secs) })
	if err != nil {
		return err
	}
	mb := float64(buf.Len()) / 1e6
	l.put("world.capture_mb", mb, "MB")
	l.put("checkpoint.write_mb_per_s", mb/wrote.Seconds(), "MB/s")

	var stored []checkpoint.Section
	read := l.once(id, "checkpoint.read_ms", func() { stored, err = checkpoint.Read(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return err
	}
	l.put("checkpoint.read_mb_per_s", mb/read.Seconds(), "MB/s")

	// What resume does after its replay: capture again and compare every
	// section that is not exempt with the stored one.
	l.once(id, "checkpoint.verify_ms", func() {
		var fresh []checkpoint.Section
		if fresh, err = w.CaptureState(); err != nil {
			return
		}
		for _, s := range fresh {
			if !world.VerifyExempt(s.Tag) && !bytes.Equal(checkpoint.Find(stored, s.Tag), s.Payload) {
				err = fmt.Errorf("section %s differs between two captures of one instant", s.Tag)
				return
			}
		}
	})
	if err != nil {
		return err
	}

	path := filepath.Join(dir, "snapshot")
	l.once(id, "durable.commit_ms", func() { err = commit(path, buf.Bytes()) })
	return err
}

// commit is the write the checkpointing run performs per snapshot: temp
// file, fsync, rename, fsync of the directory.
func commit(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // gone already once the rename succeeded
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return durable.Rename(tmp.Name(), path)
}

func (l *ledger) batchGrid(seed int64, horizon time.Duration, dir string) error {
	id := l.tr.Start(l.root, "batch")
	defer l.tr.End(id)
	cfg := batch.Config{Trials: 2, BaseSeed: seed, Workers: 1}
	for _, name := range []string{"chain-10", "grid-8x8", "dense-urban", "churn-storm", "jammer-grid"} {
		spec, err := scenario.ByName(name)
		if err != nil {
			return err
		}
		spec.Duration = scenario.Duration(horizon)
		cfg.Scenarios = append(cfg.Scenarios, spec)
	}
	var (
		res batch.Result
		err error
	)
	plain := l.once(id, "batch.run_ms", func() { res, err = batch.Run(cfg) })
	if err != nil {
		return err
	}
	cfg.Manifest = filepath.Join(dir, "manifest")
	_ = os.Remove(cfg.Manifest) // a journal left here would restore cells where this run must compute them
	sid := l.tr.Start(id, "batch.run+manifest")
	_, err = batch.Run(cfg)
	journaled := l.tr.End(sid)
	if err != nil {
		return err
	}
	cells := len(res.Cells)
	l.put("batch.cells", float64(cells), "count")
	l.put("batch.journal_ms_per_cell", ms(journaled-plain)/float64(cells), "ms")
	l.once(id, "batch.export_ms", func() { err = res.WriteJSON(io.Discard) })
	return err
}
