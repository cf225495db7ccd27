// Fileswap models the paper's motivating scenario: personal devices in an
// ad hoc network swapping files peer-to-peer. Three device pairs exchange
// data in both directions (six flows) while everyone wanders the field;
// the example transfers the same "files" under RICA and under AODV and
// compares how much of each transfer completed and how fast chunks moved.
package main

import (
	"fmt"
	"log"
	"time"

	"rica"
)

func main() {
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
}
