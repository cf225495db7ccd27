// Quickstart: run one RICA simulation in the paper's environment — 50
// terminals roaming a 1 km² field at a 36 km/h mean speed, 10 Poisson
// flows of 10 packets/s — and print the headline metrics.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"rica"
)

func main() {
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
}
