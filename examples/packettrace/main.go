// Packettrace shows the simulator's observability surface: it runs a
// short RICA session while recording the packet-level event history, then
// prints the opening exchange — the first data packets triggering a route
// discovery flood, the reply, the receiver-initiated checking packets,
// and the first deliveries.
package main

import (
	"fmt"
	"log"
	"time"

	"rica"
)

func main() {
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
}
