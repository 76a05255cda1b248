package main

import (
	"repro/internal/hwtask"
	"repro/internal/scenario"
)

// defaultSeed is the seed whose oracle checksums are pinned below.
const defaultSeed = 1

// workload is one benchmark input: a scenario spec for a scenario seed,
// the simulated horizon of one repetition, and how many scenario seeds a
// run spreads its repetitions over.
type workload struct {
	name string
	// runMs is the simulated horizon of one repetition.
	runMs float64
	// seeds is the number of scenario seeds per run: more where the
	// scenario's host cost depends strongly on the seed.
	seeds int
	// shardCheck is how many of a run's scenario seeds the 2-shard
	// equivalence check tries (0 = no check).
	shardCheck int
	// pinned are the checksums the sequential engine on the scalar memory
	// path produces for the scenario seeds of defaultSeed at runMs.
	// Regenerate them with `go test -run TestPinnedOracles -v` in this
	// directory; the test prints the values and checks that the batched
	// memory path agrees.
	pinned []uint64
	spec   func(seed uint32, runMs float64) scenario.Spec
}

// smallMenu is the quickly reconfigured part of the paper's task set:
// short SD stages and sub-millisecond PCAP downloads, so a short horizon
// still pushes many requests through the manager and the pipeline.
var smallMenu = []uint16{
	hwtask.TaskFFT256, hwtask.TaskFFT512,
	hwtask.TaskQAM4, hwtask.TaskQAM16, hwtask.TaskQAM64,
}

var workloads = []workload{
	{
		// The paper's Table III shape: codec arithmetic and streaming
		// memory hits dominate host time; kernel exits are rare.
		name: "codec-stream", runMs: 400, seeds: 4,
		pinned: []uint64{
			0xcfa6b82f47319647, 0x8b8930ab6d829928, 0x670ddc368ea33f03, 0xa1f79cdb0c0fa4c1,
		},
		spec: func(seed uint32, runMs float64) scenario.Spec {
			return scenario.Spec{
				Name: "codec-stream", Cores: 1, RunMs: runMs, Seed: seed,
				VMs: []scenario.VM{
					{Workload: "gsm", HwGapTicks: 31},
					{Workload: "adpcm", HwGapTicks: 31},
					{Workload: "gsm", HwGapTicks: 31},
					{Workload: "adpcm", HwGapTicks: 31},
				},
			}
		},
	},
	{
		// Compute-free guests on two cores: host time goes to kernel
		// paths, the vGIC, the reconfiguration pipeline, the epoch engine
		// and guest handoff. Shards stays 0: the sequential multi-core
		// engine (the 2-shard engine diverges on this spec).
		name: "exit-storm", runMs: 100, seeds: 64, shardCheck: 4,
		pinned: []uint64{
			0xe5a058a22da8f641, 0x4011b652e0e3cbad, 0x32f50d32aeb70b07, 0x07de025860ffa078,
			0xe9e5a63fbc33e37b, 0x0ca93949a6f51a80, 0x41da701c9032dac1, 0x64e0e5757b20bc0f,
			0x30d829504eb62a7d, 0xe6d6bfa8933e8e6a, 0x191c8658e0ac413d, 0xd5898c7c3a58324b,
			0xd51614298d41bc4e, 0x8e49ea1f1ad44842, 0xee3077d7d443e9da, 0x9aea47d1b6979d2a,
			0xc9ca840a7fdb0195, 0x2d4646c136bc4a5a, 0xbec4bb4edf93778c, 0x2afe42ce78cbfc25,
			0x061ff21b30e0b16e, 0x748e9c30ce9a46aa, 0x935235b0d58a549e, 0xabd37c7f7e9fbea9,
			0x513b6020e925120e, 0x9ec682b1b479e46c, 0xade0e7c495d2663c, 0xf40fdfc36283a3c0,
			0xe40dcbd1326b3cc4, 0xac820b929c7a3b26, 0x5386e19fc3152eab, 0x12ae5ac8d2517edb,
			0x725696ded566a8b4, 0xac897ddbc1a44267, 0xfb2cc18d4e1286da, 0xb03eb77309d566c0,
			0x43c0e1c1e82e20f0, 0xd93a8528045e690a, 0x355d0351bee1237f, 0x4d5873c5eb6db909,
			0xd8611218e08f07ce, 0xbe9e26e4bcc74468, 0xbee7ae59262cd21e, 0xffb0a49ea3c35c67,
			0x457b0cfc107e5e7a, 0x7cf18bfd3a7e3ae7, 0x9dc2bf5baeb5189d, 0x14c352b028a72cbb,
			0xc1573fa4967800c5, 0x93a98fc989e9d8ea, 0xa29d4efbecb20277, 0x0fb3e6abe9d0bc50,
			0x41856464ad27b95d, 0xeb3bf61a9977fd35, 0x7757611ea9c2fbba, 0x4862ad37d68ea7ac,
			0x907c23d8e021db53, 0xef04b0766348fa65, 0x79fb5ad858130892, 0xbb6599eb44275289,
			0x9880a83c6f3b08da, 0x45b791daec0e8020, 0x90ffd42b21c7a632, 0xc19cd82d7231a7d0,
		},
		spec: func(seed uint32, runMs float64) scenario.Spec {
			return scenario.Spec{
				Name: "exit-storm", Cores: 2, Policy: "prio-rr", QuantumMs: 2, RunMs: runMs, Seed: seed,
				VMs: []scenario.VM{
					{HwGapTicks: 1, HwMenu: smallMenu, ReleaseEvery: 4, StormLines: 1, StormPeriodUs: 90, StormBurst: 3},
					{HwGapTicks: 2, HwMenu: smallMenu},
					{HwGapTicks: 3, HwMenu: smallMenu, ReleaseEvery: 3, StormLines: 1, StormPeriodUs: 150, StormBurst: 2},
					{HwGapTicks: 1, HwMenu: smallMenu},
					{HwGapTicks: 2, HwMenu: smallMenu, ReleaseEvery: 5, StormLines: 1, StormPeriodUs: 200, StormBurst: 3},
					{HwGapTicks: 3, HwMenu: smallMenu},
					{HwGapTicks: 1, HwMenu: smallMenu, ReleaseEvery: 2},
					{HwGapTicks: 2, HwMenu: smallMenu},
				},
			}
		},
	},
	{
		// One template boot, then 256 copy-on-write clones through a
		// 64-deep warm pool with 2 ms TTL reaping and keep-warm: the
		// checkpoint/pool/COW layers and the memory model's miss path.
		name: "fork-fleet", runMs: 110, seeds: 2,
		pinned: []uint64{
			0xa42c2dad4d18043c, 0xecf29fae44393feb,
		},
		spec: func(seed uint32, runMs float64) scenario.Spec {
			return scenario.Spec{
				Name: "fork-fleet", Cores: 2, RunMs: runMs, Seed: seed,
				Snapshot: &scenario.SnapshotSpec{Clones: 256, Prewarm: 64, TTLMs: 2, KeepWarm: true},
				VMs:      []scenario.VM{{Name: "template"}},
			}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
