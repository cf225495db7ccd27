package rica_test

import (
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"rica"
)

// The examples below are the runnable walkthroughs of the library,
// smallest first: run them with `go test -run Example -v .`; a godoc
// renderer shows each beside the identifier it is named for. Each one's
// `// Output:` block is the exact stdout it prints, so a change that
// moves a number a walkthrough shows fails here, beside the goldens. To re-take a block after a
// change that means to move it, run the one example (go test -run
// '^ExampleSweep$' .): a mismatch prints the stdout it got, which becomes
// the new block (docs/TESTING.md, "Examples are tests").

// One RICA simulation in the paper's environment — 50 terminals roaming
// a 1 km² field at a 36 km/h mean speed, 10 Poisson flows of 10
// packets/s — printing the headline metrics. Drop reasons print in
// sorted order: Summary.Dropped is a map.
func ExampleRun() {
	field, err := rica.PaperField(36, 10, 60*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	summary, err := rica.Run(rica.ScenarioRun{
		Scenario: field, Protocol: rica.ProtocolRICA, Seed: 1,
	}, rica.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("RICA, 50 terminals, 36 km/h mean, 10 packets/s per flow, 60 s:")
	fmt.Printf("  generated packets:   %d\n", summary.Generated)
	fmt.Printf("  delivered packets:   %d (%.1f%%)\n", summary.Delivered, summary.DeliveryRatio*100)
	fmt.Printf("  mean e2e delay:      %v\n", summary.AvgDelay.Round(time.Millisecond))
	fmt.Printf("  routing overhead:    %.1f kbps\n", summary.OverheadBps/1000)
	fmt.Printf("  per-hop link rate:   %.0f kbps (channel classes the routes used)\n",
		summary.AvgLinkThroughputBps/1000)
	fmt.Printf("  mean route length:   %.2f hops (%.2f in CSI hop distance)\n",
		summary.AvgHops, summary.AvgCSIHops)
	for _, reason := range slices.Sorted(maps.Keys(summary.Dropped)) {
		fmt.Printf("  dropped (%s): %d\n", reason, summary.Dropped[reason])
	}
	// Output:
	// RICA, 50 terminals, 36 km/h mean, 10 packets/s per flow, 60 s:
	//   generated packets:   5905
	//   delivered packets:   5712 (96.7%)
	//   mean e2e delay:      191ms
	//   routing overhead:    147.4 kbps
	//   per-hop link rate:   174 kbps (channel classes the routes used)
	//   mean route length:   3.53 hops (6.87 in CSI hop distance)
	//   dropped (congestion): 82
	//   dropped (no-route): 34
	//   dropped (link-break): 71
}

// All five protocols against the identical random universe — the same
// terminal trajectories, the same fading sample paths, the same Poisson
// arrivals — at a demanding operating point (72 km/h mean, 20 packets/s
// per flow): a side-by-side scorecard including the route-quality
// columns of the paper's Figure 5.
func ExampleRun_protocolDuel() {
	field, err := rica.PaperField(72, 20, 60*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Five-protocol duel: 72 km/h mean speed, 20 packets/s per flow, 60 s, one seed.")
	fmt.Printf("%-10s%10s%12s%12s%12s%10s%10s\n",
		"protocol", "deliv %", "delay", "ovh kbps", "link kbps", "CSI hops", "max hops")
	for _, p := range rica.AllProtocols() {
		s, err := rica.Run(rica.ScenarioRun{Scenario: field, Protocol: p, Seed: 42}, rica.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s%10.1f%12v%12.1f%12.0f%10.2f%10d\n",
			p.String(),
			s.DeliveryRatio*100,
			s.AvgDelay.Round(time.Millisecond),
			s.OverheadBps/1000,
			s.AvgLinkThroughputBps/1000,
			s.AvgCSIHops,
			s.MaxHops)
	}
	fmt.Println("\nmax hops far beyond the network diameter (~8) betray routing loops —")
	fmt.Println("the link-state pathology the paper attributes to flooded updates that")
	fmt.Println("cannot keep per-terminal views consistent under mobility.")
	// Output:
	// Five-protocol duel: 72 km/h mean speed, 20 packets/s per flow, 60 s, one seed.
	// protocol     deliv %       delay    ovh kbps   link kbps  CSI hops  max hops
	// AODV            39.5       479ms        61.7         153      5.70         8
	// RICA            83.8       369ms       217.4         183      7.68        18
	// BGCA            76.8       299ms       157.6         187      6.67        10
	// ABR             67.1       668ms        74.2         143      9.39         8
	// LinkState       62.3       334ms      1063.8         189      6.53       107
	//
	// max hops far beyond the network diameter (~8) betray routing loops —
	// the link-state pathology the paper attributes to flooded updates that
	// cannot keep per-terminal views consistent under mobility.
}

// The energy-accounting extension. The paper motivates channel
// awareness partly by battery life ("the inefficient use of channel ...
// can increase the consumption of the limited battery power in each
// mobile terminal"): a class-D hop keeps the radio on air five times
// longer per bit than a class-A hop, so routing over good links is an
// energy optimization too. This compares the five protocols' transmit
// energy per delivered megabit.
func ExampleRun_energy() {
	field, err := rica.PaperField(36, 10, 90*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Transmit energy per protocol — 36 km/h mean, 10 packets/s per flow, 90 s:")
	fmt.Printf("%-10s%12s%12s%12s%16s%10s\n",
		"protocol", "control J", "data J", "total J", "J per Mbit", "deliv %")
	for _, p := range rica.AllProtocols() {
		s, err := rica.Run(rica.ScenarioRun{Scenario: field, Protocol: p, Seed: 11}, rica.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s%12.1f%12.1f%12.1f%16.2f%10.1f\n",
			p.String(),
			s.Energy.ControlJ,
			s.Energy.DataJ,
			s.Energy.TotalJ(),
			s.Energy.PerDeliveredBitJ*1e6,
			s.DeliveryRatio*100)
	}
	fmt.Println("\nJ per Mbit is the battery-facing figure of merit. BGCA's guarded")
	fmt.Println("routes are the most frugal; RICA buys its delivery lead at roughly")
	fmt.Println("AODV's per-bit price despite the checking packets (better links")
	fmt.Println("offset the control energy); the link-state flood burns energy")
	fmt.Println("network-wide without delivering for it.")
	// Output:
	// Transmit energy per protocol — 36 km/h mean, 10 packets/s per flow, 90 s:
	// protocol     control J      data J     total J      J per Mbit   deliv %
	// AODV              11.8       840.7       852.5           37.94      61.2
	// RICA              56.0      1271.6      1327.6           38.41      94.2
	// BGCA              11.5      1099.5      1111.0           37.54      80.6
	// ABR                8.2      1369.6      1377.8           41.29      90.9
	// LinkState        381.8      1232.1      1613.9           53.99      81.4
	//
	// J per Mbit is the battery-facing figure of merit. BGCA's guarded
	// routes are the most frugal; RICA buys its delivery lead at roughly
	// AODV's per-bit price despite the checking packets (better links
	// offset the control energy); the link-state flood burns energy
	// network-wide without delivering for it.
}

// The paper's motivating scenario: personal devices in an ad hoc
// network swapping files peer-to-peer. Three device pairs exchange data
// in both directions (six flows) while everyone wanders the field; the
// same "files" go over RICA and over AODV, comparing how much of each
// transfer completed and how fast chunks moved.
func ExampleRun_fileSwap() {
	// Three bidirectional swaps on the paper's field at a 36 km/h mean:
	// each side pushes 512-byte chunks at 15 packets/s (≈61 kbps of
	// goodput demand per direction).
	swap, err := rica.PaperField(36, 15, 90*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	swap.Traffic.Pairs = []rica.ScenarioPair{
		{Src: 3, Dst: 27}, {Src: 27, Dst: 3},
		{Src: 11, Dst: 40}, {Src: 40, Dst: 11},
		{Src: 19, Dst: 35}, {Src: 35, Dst: 19},
	}

	fmt.Println("Peer-to-peer file swapping, 3 device pairs × 2 directions, 36 km/h mean:")
	fmt.Printf("%-10s%14s%14s%12s%14s\n", "protocol", "chunks sent", "chunks recv", "complete", "mean delay")
	for _, p := range []rica.Protocol{rica.ProtocolRICA, rica.ProtocolAODV} {
		s, err := rica.Run(rica.ScenarioRun{Scenario: swap, Protocol: p, Seed: 7}, rica.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s%14d%14d%11.1f%%%14v\n",
			p.String(), s.Generated, s.Delivered, s.DeliveryRatio*100,
			s.AvgDelay.Round(time.Millisecond))
	}
	fmt.Println("\nThe receiver-initiated CSI checking keeps the swap on high-class")
	fmt.Println("links as devices move, which is what the delivery gap shows.")
	// Output:
	// Peer-to-peer file swapping, 3 device pairs × 2 directions, 36 km/h mean:
	// protocol     chunks sent   chunks recv    complete    mean delay
	// RICA                8055          7598       94.3%         209ms
	// AODV                8055          5153       64.0%         398ms
	//
	// The receiver-initiated CSI checking keeps the swap on high-class
	// links as devices move, which is what the delivery gap shows.
}

// Part of the scenario catalog through the parallel batch engine: three
// structurally different workloads — a 9-hop relay chain, a partitioned
// chain that heals mid-run, and bursty hotspot clusters — each under two
// routing protocols and three seeds, with live per-cell progress on
// stderr and a mean/p50/p95 aggregate scorecard on stdout. The same grid
// and base seed always reproduce bit-identical results, however many
// workers the host machine offers.
func ExampleRunBatch() {
	var specs []rica.Scenario
	for _, name := range []string{"chain-10", "partition-heal", "hotspot-burst"} {
		spec, err := rica.ScenarioByName(name)
		if err != nil {
			log.Fatal(err)
		}
		// Trim the horizons so the demo finishes in seconds; the outage
		// schedule of partition-heal (bridge dead until t=40s) still fits.
		spec.Duration = rica.ScenarioDuration(45 * time.Second)
		specs = append(specs, spec)
	}

	res, err := rica.RunBatch(rica.BatchConfig{
		Scenarios: specs,
		Protocols: []rica.Protocol{rica.ProtocolRICA, rica.ProtocolAODV},
		Trials:    3,
		OnProgress: func(p rica.BatchProgress) {
			fmt.Fprintf(os.Stderr, "[%2d/%d] %-15s %-5s seed=%d  delivery %5.1f%%\n",
				p.Done, p.Total, p.Cell.Scenario, p.Cell.Protocol, p.Cell.Seed,
				p.Cell.DeliveryPct)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Cross-trial aggregates (mean over 3 seeds):")
	fmt.Print(res.Table())
	fmt.Println()

	// The partition-heal rows make the failure schedule visible: the
	// cross-partition flow contributes nothing until the bridge heals at
	// t = 40 s, so delivery sits well below the healthy chain's.
	for _, a := range res.Aggregates {
		if a.Scenario == "partition-heal" {
			fmt.Printf("partition-heal/%s delivery p50 %.1f%% (p95 %.1f%%) — depressed while the bridge is down\n",
				a.Protocol, a.DeliveryPct.P50, a.DeliveryPct.P95)
		}
	}
	// Output:
	// Cross-trial aggregates (mean over 3 seeds):
	// scenario        protocol     delivery %    delay (ms)   overhead kbps   goodput kbps
	// chain-10        RICA               98.7         491.3             6.1           32.6
	//                 AODV               98.7         490.9             4.7           32.6
	// partition-heal  RICA               69.6         127.6             2.3           70.6
	//                 AODV               69.8         119.3             1.9           70.9
	// hotspot-burst   RICA               67.9         279.7            92.6          384.3
	//                 AODV               48.1         340.8            31.1          272.4
	//
	// partition-heal/RICA delivery p50 69.4% (p95 70.1%) — depressed while the bridge is down
	// partition-heal/AODV delivery p50 70.1% (p95 70.1%) — depressed while the bridge is down
}

// A timeline is an option of the same Run as the packet trace and the
// live counters: RunOptions.Telemetry buckets one run into intervals and
// hands the finished series to its sink. Here the paper's field runs
// 10 s under RICA in 2 s buckets; the first interval carries the route
// discoveries, so its delivery ratio starts lowest. An interval's ratio
// can pass 100 % when packets queued in earlier intervals arrive in it.
func ExampleRun_timeline() {
	field, err := rica.PaperField(36, 10, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	var sink rica.MemoryTimelineSink
	_, err = rica.Run(rica.ScenarioRun{
		Scenario: field, Protocol: rica.ProtocolRICA, Seed: 1,
	}, rica.RunOptions{
		Telemetry: &rica.Telemetry{Interval: 2 * time.Second, Sink: &sink},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range sink.Runs[0].Timeline.Points {
		fmt.Printf("t=%gs delivery=%.0f%%\n", p.StartS, p.DeliveryRatio*100)
	}
	// Output:
	// t=0s delivery=55%
	// t=2s delivery=84%
	// t=4s delivery=94%
	// t=6s delivery=103%
	// t=8s delivery=99%
}

// A network breaking and repairing itself. This replays the
// partition-heal scenario — a 7-terminal chain whose only bridge
// (terminal 3) is radio-dead for the first 40 s — with per-interval
// telemetry attached, and prints the recovery curve: the delivery ratio
// sits depressed while the cross traffic is partitioned, then climbs as
// the bridge heals and the routing protocol re-discovers the end-to-end
// route. An interval's ratio can pass 100 % when packets queued during
// earlier intervals arrive in it.
func ExampleRunBatch_timeline() {
	// interval is the telemetry bucket width: 5 s is coarse enough to
	// smooth Poisson noise on a 3-flow workload, fine enough to see the
	// heal edge.
	const interval = 5 * time.Second

	spec, err := rica.ScenarioByName("partition-heal")
	if err != nil {
		log.Fatal(err)
	}

	var sink rica.MemoryTimelineSink
	_, err = rica.RunBatch(rica.BatchConfig{
		Scenarios: []rica.Scenario{spec},
		Protocols: []rica.Protocol{rica.ProtocolRICA, rica.ProtocolAODV},
		Trials:    1,
		Telemetry: &rica.BatchTelemetry{Interval: interval, Sink: &sink},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("partition-heal: chain 0–6, bridge terminal 3 dead until t=40s, %v buckets\n\n", interval)
	for _, run := range sink.Runs {
		fmt.Printf("%s delivery ratio per interval:\n", run.Run.Protocol)
		for _, p := range run.Timeline.Points {
			marker := " "
			if p.StartS < 40 {
				marker = "✗" // bridge down
			}
			bar := strings.Repeat("█", int(p.DeliveryRatio*40+0.5))
			fmt.Printf("  t=%3.0fs %s %5.1f%% %s\n", p.StartS, marker, p.DeliveryRatio*100, bar)
		}
		fmt.Println()
	}
	fmt.Println("✗ = bridge down. Watch the curve step up after t=40s as routes re-form;")
	fmt.Println("the interval timeline is what end-of-run aggregates average away.")
	// Output:
	// partition-heal: chain 0–6, bridge terminal 3 dead until t=40s, 5s buckets
	//
	// RICA delivery ratio per interval:
	//   t=  0s ✗  66.1% ██████████████████████████
	//   t=  5s ✗  74.2% ██████████████████████████████
	//   t= 10s ✗  68.1% ███████████████████████████
	//   t= 15s ✗  67.4% ███████████████████████████
	//   t= 20s ✗  75.0% ██████████████████████████████
	//   t= 25s ✗  73.3% █████████████████████████████
	//   t= 30s ✗  71.1% ████████████████████████████
	//   t= 35s ✗  65.5% ██████████████████████████
	//   t= 40s    70.9% ████████████████████████████
	//   t= 45s    83.5% █████████████████████████████████
	//   t= 50s   103.6% █████████████████████████████████████████
	//   t= 55s    86.8% ███████████████████████████████████
	//   t= 60s    87.3% ███████████████████████████████████
	//   t= 65s    93.0% █████████████████████████████████████
	//   t= 70s   103.7% █████████████████████████████████████████
	//   t= 75s    88.7% ███████████████████████████████████
	//   t= 80s    86.4% ███████████████████████████████████
	//   t= 85s    80.2% ████████████████████████████████
	//   t= 90s    73.4% █████████████████████████████
	//   t= 95s    82.9% █████████████████████████████████
	//   t=100s    88.7% ███████████████████████████████████
	//   t=105s    88.3% ███████████████████████████████████
	//   t=110s    79.1% ████████████████████████████████
	//   t=115s    86.7% ███████████████████████████████████
	//
	// AODV delivery ratio per interval:
	//   t=  0s ✗  66.1% ██████████████████████████
	//   t=  5s ✗  74.2% ██████████████████████████████
	//   t= 10s ✗  68.1% ███████████████████████████
	//   t= 15s ✗  67.4% ███████████████████████████
	//   t= 20s ✗  75.0% ██████████████████████████████
	//   t= 25s ✗  73.3% █████████████████████████████
	//   t= 30s ✗  71.9% █████████████████████████████
	//   t= 35s ✗  64.7% ██████████████████████████
	//   t= 40s    70.9% ████████████████████████████
	//   t= 45s    81.0% ████████████████████████████████
	//   t= 50s    90.9% ████████████████████████████████████
	//   t= 55s    95.0% ██████████████████████████████████████
	//   t= 60s   104.2% ██████████████████████████████████████████
	//   t= 65s    99.2% ████████████████████████████████████████
	//   t= 70s    87.2% ███████████████████████████████████
	//   t= 75s    90.3% ████████████████████████████████████
	//   t= 80s    85.6% ██████████████████████████████████
	//   t= 85s    80.9% ████████████████████████████████
	//   t= 90s    72.7% █████████████████████████████
	//   t= 95s    83.7% █████████████████████████████████
	//   t=100s    88.7% ███████████████████████████████████
	//   t=105s    88.3% ███████████████████████████████████
	//   t=110s    80.0% ████████████████████████████████
	//   t=115s    85.0% ██████████████████████████████████
	//
	// ✗ = bridge down. Watch the curve step up after t=40s as routes re-form;
	// the interval timeline is what end-of-run aggregates average away.
}

// The packet-level event history of a short RICA session
// (RunOptions.Trace, one flow pinned with Traffic.Pairs): the opening
// exchange — the first data packets triggering a route discovery flood,
// the reply, the receiver-initiated checking packets, and the first
// deliveries.
func ExampleNewTraceRecorder() {
	field, err := rica.PaperField(20, 10, 3*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	field.Traffic.Pairs = []rica.ScenarioPair{{Src: 12, Dst: 33}}
	rec := rica.NewTraceRecorder(4096)
	summary, err := rica.Run(rica.ScenarioRun{
		Scenario: field, Protocol: rica.ProtocolRICA, Seed: 4,
	}, rica.RunOptions{Trace: rec})
	if err != nil {
		log.Fatal(err)
	}
	events := rec.Events()

	fmt.Println("First 45 events of a single RICA flow (terminal 12 → 33):")
	for i, e := range events {
		if i >= 45 {
			break
		}
		fmt.Println(" ", e)
	}
	fmt.Printf("\n%d events total; delivered %d/%d packets, mean delay %v.\n",
		len(events), summary.Delivered, summary.Generated,
		summary.AvgDelay.Round(time.Millisecond))
	fmt.Println("Watch for: GEN at the source, the RREQ flood (CTL), the unicast")
	fmt.Println("RREP retracing it, periodic CSIC broadcasts from terminal 33, and")
	fmt.Println("DLV lines whose hop counts follow the route the checks selected.")
	// Output:
	// First 45 events of a single RICA flow (terminal 12 → 33):
	//     74.006ms GEN      node=12 DATA 12→33
	//     74.006ms CTL      node=12 RREQ 12→33
	//     78.631ms CTL      node=25 RREQ 12→33
	//     84.234ms GEN      node=12 DATA 12→33
	//     84.651ms CTL      node=21 RREQ 12→33
	//     86.205ms GEN      node=12 DATA 12→33
	//     86.842ms CTL      node=26 RREQ 12→33
	//     86.936ms CTL      node=19 RREQ 12→33
	//     88.217ms CTL      node=44 RREQ 12→33
	//     89.135ms CTL      node=15 RREQ 12→33
	//     89.523ms CTL      node=29 RREQ 12→33
	//     91.277ms CTL      node=10 RREQ 12→33
	//     91.937ms CTL      node=8  RREQ 12→33
	//     93.048ms CTL      node=28 RREQ 12→33
	//     93.163ms CTL      node=0  RREQ 12→33
	//     93.293ms CTL      node=47 RREQ 12→33
	//      94.26ms CTL      node=22 RREQ 12→33
	//     95.304ms CTL      node=47 RREQ 12→33
	//     95.555ms CTL      node=37 RREQ 12→33
	//     95.943ms CTL      node=20 RREQ 12→33
	//     96.794ms CTL      node=22 RREQ 12→33
	//     97.769ms CTL      node=44 RREQ 12→33
	//     97.981ms CTL      node=49 RREQ 12→33
	//     98.706ms CTL      node=5  RREQ 12→33
	//     98.826ms CTL      node=31 RREQ 12→33
	//     99.357ms CTL      node=17 RREQ 12→33
	//     99.626ms CTL      node=3  RREQ 12→33
	//    100.365ms CTL      node=23 RREQ 12→33
	//    101.134ms CTL      node=11 RREQ 12→33
	//    101.138ms CTL      node=40 RREQ 12→33
	//    102.162ms CTL      node=36 RREQ 12→33
	//     102.26ms CTL      node=5  RREQ 12→33
	//      102.7ms CTL      node=17 RREQ 12→33
	//    103.202ms CTL      node=43 RREQ 12→33
	//    103.621ms CTL      node=18 RREQ 12→33
	//    103.919ms CTL      node=1  RREQ 12→33
	//    104.279ms CTL      node=27 RREQ 12→33
	//    104.513ms CTL      node=28 RREQ 12→33
	//    104.721ms CTL      node=37 RREQ 12→33
	//    105.242ms CTL      node=45 RREQ 12→33
	//    105.445ms CTL      node=46 RREQ 12→33
	//    105.697ms CTL      node=17 RREQ 12→33
	//    105.823ms CTL      node=1  RREQ 12→33
	//    106.251ms CTL      node=4  RREQ 12→33
	//     106.52ms CTL      node=46 RREQ 12→33
	//
	// 389 events total; delivered 29/29 packets, mean delay 130ms.
	// Watch for: GEN at the source, the RREQ flood (CTL), the unicast
	// RREP retracing it, periodic CSIC broadcasts from terminal 33, and
	// DLV lines whose hop counts follow the route the checks selected.
}

// The shape of the paper's Figures 2 and 3 at a reduced scale: the mean
// terminal speed sweeps from 0 to 72 km/h, and the tables show how
// delay, delivery and overhead respond for every protocol: RICA holds
// its delivery as mobility grows while AODV and the link-state baseline
// lose a quarter or more of theirs. One trial of 20 s per cell keeps it
// to a second; at this scale one seed's noise shows (AODV delivers more
// at 72 km/h than at 36), which the paper's 25 trials of 500 s average
// away.
func ExampleSweep() {
	opts := rica.Options{
		Speeds:   []float64{0, 36, 72},
		Trials:   1,
		Duration: 20 * time.Second,
		BaseSeed: 1,
	}
	fmt.Println("Sweeping mean speed at 10 packets/s per flow (reduced scale)...")
	sweep := rica.Sweep(10, opts)
	fmt.Println()
	fmt.Println(sweep.Table(rica.MetricDelay))
	fmt.Println(sweep.Table(rica.MetricDelivery))
	fmt.Println(sweep.Table(rica.MetricOverhead))
	fmt.Println("Full paper scale: go run ./cmd/ricasim -figure all -trials 25 -duration 500s")
	// Output:
	// Sweeping mean speed at 10 packets/s per flow (reduced scale)...
	//
	// Average End-to-End Delay (ms) — 10 packets/s per flow
	// km/h:             0       36       72
	// AODV          359.0    323.0    320.0
	// RICA          246.0    285.0    251.0
	// BGCA          280.0    318.0    271.0
	// ABR           467.0    331.0    312.0
	// LinkState     187.0    252.0    241.0
	//
	// Successful Packet Delivery (%) — 10 packets/s per flow
	// km/h:             0       36       72
	// AODV           87.6     56.5     61.6
	// RICA           90.0     92.8     91.1
	// BGCA           86.1     69.8     73.9
	// ABR            80.7     92.6     92.2
	// LinkState      91.6     80.8     66.7
	//
	// Routing Overhead (kbps) — 10 packets/s per flow
	// km/h:             0       36       72
	// AODV           40.6     52.9     54.4
	// RICA          164.4    183.7    192.7
	// BGCA           53.8     64.3     81.7
	// ABR            35.1     46.1     52.7
	// LinkState     553.1    994.1   1001.8
	//
	// Full paper scale: go run ./cmd/ricasim -figure all -trials 25 -duration 500s
}

// The live observability surface around one run: the run counts into a
// registry attached to a hub, and detaching folds the registry's totals
// into the hub, so the hub's aggregate agrees with the run's own
// deterministic snapshot on Summary.Obs. Serve hub.Handler() (for
// example, http.Handle("/", hub.Handler())) for /stats.json and
// /metrics; BatchConfig.Hub does the attach and detach per cell.
func ExampleNewObsHub() {
	field, err := rica.PaperField(36, 10, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	reg := rica.NewObsRegistry()
	hub := rica.NewObsHub()
	hub.Attach(reg) // live aggregate while running
	s, err := rica.Run(rica.ScenarioRun{Scenario: field, Protocol: rica.ProtocolRICA, Seed: 1},
		rica.RunOptions{Obs: reg})
	if err != nil {
		log.Fatal(err)
	}
	hub.Detach(reg) // folds the registry's totals into the hub

	live := hub.Snapshot()
	fmt.Println("run events dispatched:", s.Obs.EventsDispatched)
	fmt.Println("hub events dispatched:", live.EventsDispatched)
	fmt.Println("hub data generated:   ", live.TrafficGenerated, "of", s.Generated)
	// Output:
	// run events dispatched: 40245
	// hub events dispatched: 40245
	// hub data generated:    1016 of 1016
}
