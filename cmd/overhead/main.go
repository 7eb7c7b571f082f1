// Command overhead reproduces Table 4 (Sec. 5.1): the runtime's decision
// latency per iteration while managing x264 (the benchmark with the largest
// application configuration space), for each platform's system
// configuration space.
package main

import (
	"flag"
	"fmt"
	"os"

	"jouleguard/internal/experiments"
)

func main() {
	rounds := flag.Int("rounds", 1000, "timed runtime iterations")
	flag.Parse()

	rows, err := experiments.Table4(*rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("Table 4 — runtime overhead (Decide+Observe per iteration, managing x264)")
	fmt.Printf("%-8s %12s %14s\n", "platform", "sys configs", "latency (us)")
	for _, r := range rows {
		fmt.Printf("%-8s %12d %14.2f\n", r.Platform, r.SysConfigs, r.LatencyUS)
	}
	fmt.Println("\n(The paper's absolute numbers reflect its embedded CPUs, and its")
	fmt.Println(" latency grows with the configuration-space size; here the Eqn 3")
	fmt.Println(" arg-max is kept in a tournament tree, so it barely does. What")
	fmt.Println(" carries over is the claim: orders of magnitude below any realistic")
	fmt.Println(" power-feedback period.)")
}
