// Host-time benchmarks of the simulator itself. Simulated results live
// elsewhere: the paper's artifacts come from cmd/experiments and are
// pinned in CI (internal/experiments/testdata/experiments.txt), and the
// design-choice ablations are branches of experiments.TestGoldenTable3Rows.
// What is left here measures how fast the host runs the simulation:
//
//	go test -run xxx -bench SimThroughput -benchtime 1x .
package main

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/simclock"
)

// BenchmarkSimThroughput measures the batched memory-path engine against
// the scalar reference path on the Table III 4-VM configuration: simulated
// milliseconds covered per host second (higher is better). The two paths
// produce bit-identical simulated results (see cpu.TestBatchedScalarEquivalence);
// this benchmark is the wall-clock half of that story. Only RunFor is
// timed; building and tearing down the system is not.
func BenchmarkSimThroughput(b *testing.B) {
	simMs := 100.0
	if testing.Short() {
		simMs = 20.0
	}
	for _, scalar := range []bool{false, true} {
		name := "batched"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			var simCovered float64
			var instr uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := experiments.BuildVirtSystem(experiments.DefaultConfig())
				for _, core := range sys.Kernel.Cores {
					core.CPU.ScalarMemPath = scalar
				}
				t0 := sys.Kernel.Clock.Now()
				b.StartTimer()
				sys.Kernel.RunFor(simclock.FromMillis(simMs))
				b.StopTimer()
				simCovered += (sys.Kernel.Clock.Now() - t0).Millis()
				for _, core := range sys.Kernel.Cores {
					instr += core.CPU.Stats().Instructions
				}
				sys.Kernel.Shutdown()
			}
			host := b.Elapsed().Seconds()
			b.ReportMetric(simCovered/host, "sim_ms/host_s")
			b.ReportMetric(float64(instr)/host/1e6, "sim_mips")
		})
	}
}
