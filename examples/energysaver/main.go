// Energysaver exercises the repository's energy-accounting extension.
// The paper motivates channel awareness partly by battery life ("the
// inefficient use of channel ... can increase the consumption of the
// limited battery power in each mobile terminal"): a class-D hop keeps
// the radio on air five times longer per bit than a class-A hop, so
// routing over good links is an energy optimization too. This example
// compares the five protocols' transmit energy per delivered megabit.
package main

import (
	"fmt"
	"log"
	"time"

	"rica"
)

func main() {
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
}
