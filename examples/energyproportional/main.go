// Example energyproportional: the paper's Section III-B.2 argument made
// quantitative. Clusters spend much of their life idle; traditional
// servers draw high idle power, while SBC nodes draw very little and can
// be powered off individually. This example models a daily duty cycle
// and compares the energy bill of an op-gold server against WimPi
// clusters with and without fine-grained node power-off.
package main

import (
	"fmt"
	"log"
	"time"

	"wimpi/internal/hardware"
	"wimpi/internal/powersim"
)

func main() {
	gold, err := hardware.ByName("op-gold")
	if err != nil {
		log.Fatal(err)
	}
	pi := hardware.Pi()

	const (
		nodes       = 24
		activeHours = 4.0  // batch window per day
		idleHours   = 20.0 // rest of the day
		secsPerHour = 3600.0
	)
	activeS := activeHours * secsPerHour
	idleS := idleHours * secsPerHour

	wimpiActiveW := pi.Watts() * nodes
	wimpiIdleW := pi.WattsIdle() * nodes

	// A day's energy: active draw over the batch window plus idle draw
	// over the rest, unless the idle nodes are powered off.
	server := gold.Watts()*activeS + gold.WattsIdle()*idleS
	wimpiOn := wimpiActiveW*activeS + wimpiIdleW*idleS
	wimpiOff := wimpiActiveW * activeS

	kwh := func(j float64) float64 { return j / 3.6e6 }
	fmt.Printf("daily duty cycle: %g h active, %g h idle\n\n", activeHours, idleHours)
	fmt.Printf("%-34s %8.2f kWh/day\n", "op-gold (always on)", kwh(server))
	fmt.Printf("%-34s %8.2f kWh/day\n", fmt.Sprintf("WimPi x%d (always on)", nodes), kwh(wimpiOn))
	fmt.Printf("%-34s %8.2f kWh/day\n", fmt.Sprintf("WimPi x%d (idle nodes off)", nodes), kwh(wimpiOff))
	fmt.Printf("\nWimPi saves %.0f%% always-on, %.0f%% with node power-off\n",
		100*(1-wimpiOn/server), 100*(1-wimpiOff/server))

	// Fine-grained elasticity: keep only a 4-node "hot" slice alive
	// during idle hours for interactive queries.
	hot := 4
	wimpiHot := wimpiActiveW*activeS + pi.WattsIdle()*float64(hot)*idleS
	fmt.Printf("keeping a %d-node hot slice instead: %.2f kWh/day (%.0f%% saved vs server)\n",
		hot, kwh(wimpiHot), 100*(1-wimpiHot/server))

	// Annualized electricity cost at the US average rate the paper uses.
	const usdPerKWh = 0.1317
	fmt.Printf("\nannual electricity: op-gold $%.0f, WimPi (off) $%.0f\n",
		kwh(server)*365*usdPerKWh, kwh(wimpiOff)*365*usdPerKWh)

	// The same argument, dynamically: a discrete-event simulation of a
	// bursty batch workload under two power policies.
	cluster := powersim.Cluster{Nodes: nodes, Power: powersim.PiPower(), BootDelay: 5 * time.Second}
	trace := powersim.PeriodicTrace(15*time.Minute, time.Minute, 6, 4, 8)
	fmt.Println("\npower-policy simulation (8 bursts of 4 six-node jobs, 15 min apart):")
	for _, policy := range []powersim.Policy{powersim.AlwaysOn{}, powersim.OnDemand{Min: 2}} {
		rep, err := powersim.Simulate(cluster, policy, trace)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %8.0f J   mean latency %6s   max %6s\n",
			rep.Policy, rep.EnergyJoules,
			rep.MeanLatency.Round(time.Second), rep.MaxLatency.Round(time.Second))
	}
}
