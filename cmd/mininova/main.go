// Command mininova boots the full virtualized stack — Mini-NOVA on the
// simulated Zynq-7000, the Hardware Task Manager service, and N
// paravirtualized uC/OS-II guests driving FFT/QAM hardware tasks — runs
// it for a simulated interval, and prints the system's state: console
// output, scheduler/manager statistics and the latency probes.
package main

import (
	"flag"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/simclock"
)

func main() {
	var (
		guests = flag.Int("guests", 2, "number of uC/OS-II guest VMs")
		cores  = flag.Int("cores", 1, "simulated A9 cores (2 = dual-core Zynq, service on core 1)")
		ms     = flag.Float64("ms", 500, "simulated milliseconds to run")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Guests = *guests
	cfg.Cores = *cores
	cfg.Iterations = 1 << 30 // run on the clock, not a request budget
	cfg.Warmup = 0

	sys := experiments.BuildVirtSystem(cfg)
	defer sys.Kernel.Shutdown()
	fmt.Printf("booting Mini-NOVA with %d guests on %d core(s) of the simulated Zynq-7000...\n",
		*guests, len(sys.Kernel.Cores))
	sys.Kernel.RunFor(simclock.FromMillis(*ms))

	k := sys.Kernel
	fmt.Printf("\nsimulated time: %.1f ms, %d instructions retired\n",
		k.Clock.Now().Millis(), k.CPU.Stats().Instructions)
	fmt.Printf("hardware-task requests served: %d\n", sys.Requests())
	st := sys.Manager.Stats
	fmt.Printf("manager: hits=%d reconfigs=%d reclaims=%d busy=%d\n",
		st.Hits, st.Reconfigs, st.Reclaims, st.Busy)
	fmt.Printf("PCAP transfers: %d, hwMMU violations: %d\n",
		k.Fabric.PCAP.Transfers, k.Fabric.HwMMU.Violations)
	for _, pd := range k.PDs {
		fmt.Printf("  pd %-10s cpu%d prio=%d switches=%-6d hypercalls=%-6d faults=%d\n",
			pd.Name_, pd.Core.ID, pd.Priority, pd.Switches, pd.Hypercalls, pd.Faults)
	}
	for _, c := range k.Cores {
		fmt.Printf("  cpu%d utilization %.1f%%\n", c.ID, c.Utilization(k.Clock.Now())*100)
	}
	fmt.Printf("reschedule SGIs sent: %d\n", k.GIC.Stats().SGIsSent)
	fmt.Println()
	for _, c := range k.Cores {
		// Private L1s and TLB per core; the L2 is shared, so its rate
		// repeats across rows.
		fmt.Printf("cpu%d caches: L1I miss %.4f, L1D miss %.4f, L2 miss %.4f, TLB miss %.4f\n",
			c.ID,
			c.CPU.Caches.L1I.Stats().MissRate(),
			c.CPU.Caches.L1D.Stats().MissRate(),
			c.CPU.Caches.L2.Stats().MissRate(),
			c.CPU.TLB.Stats().MissRate())
	}
	fmt.Printf("\nlatency probes:\n%s", k.Probes)
	if out := k.ConsoleString(); out != "" {
		fmt.Printf("\nguest console:\n%s\n", out)
	}
}
