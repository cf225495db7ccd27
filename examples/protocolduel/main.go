// Protocolduel pits all five protocols against the identical random
// universe — the same terminal trajectories, the same fading sample paths,
// the same Poisson arrivals — at a demanding operating point (72 km/h
// mean, 20 packets/s per flow) and prints a side-by-side scorecard,
// including the route-quality columns of the paper's Figure 5.
package main

import (
	"fmt"
	"log"
	"time"

	"rica"
)

func main() {
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
}
