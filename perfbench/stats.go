package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/scenario"
	"repro/internal/simclock"
)

// metric is one named value with its unit. note carries the sample count
// behind a median or percentile, or "n/a" when the value is undefined.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// keptPhases are the kernel probes whose samples the benchmark retains for
// percentiles. Keep is set after Build and before Run; retaining samples
// changes no simulated state.
var keptPhases = [...]string{measure.PhaseMgrEntry, measure.PhasePLIRQEntry, measure.PhaseVMSwitch, measure.PhaseHypercall}

func keepProbes(k *nova.Kernel) {
	for _, ph := range keptPhases {
		k.Probes.Get(ph).Keep = true
	}
}

// counts are the simulated quantities of one or more runs, read from
// public state after Run. They are deterministic functions of the spec
// and add up across runs, so a run's counts must equal its oracle's, and
// a benchmark run pools them over its sub-seeds.
type counts struct {
	simCycles, coreCycles, busyCycles, switchCycles uint64

	instructions, exceptions, l1Accesses uint64
	l1dHits, l1dMisses, l2Hits, l2Misses uint64
	tlbHits, tlbMisses                   uint64

	hypercalls, switches, injected, relatched, epochs, capLookups uint64

	requests, attempts                    uint64
	reconfigs, rcHits, rcMisses           uint64
	prefetchHits, prefetchIssued          uint64
	queueMax                              uint64 // maximum, not a sum
	built, reaped, poolHits, poolMisses   uint64
	clones, forkCycles                    uint64
	cowFaults, framesCopied, framesShared uint64

	samples [len(keptPhases)][]simclock.Cycles
}

func read(sys *scenario.System, res scenario.Result) counts {
	k := sys.Kernel
	c := counts{
		simCycles:  uint64(k.Clock.Now()),
		coreCycles: uint64(k.Clock.Now()) * uint64(len(k.Cores)),
		hypercalls: res.Hypercalls, switches: res.Switches,
		injected: res.Injected, relatched: res.Relatched,
		epochs: k.Epochs, capLookups: res.CapLookups,
		requests: res.Requests, reconfigs: res.Reconfigs,
		built: res.PoolBuilt, reaped: res.PoolReaped, poolHits: res.PoolHits, poolMisses: res.PoolMisses,
		clones: uint64(res.CloneCount), forkCycles: uint64(res.ForkCycles),
		cowFaults: res.COWFaults, framesCopied: res.FramesCopied, framesShared: res.FramesShared,
		switchCycles: uint64(k.Probes.Get(measure.PhaseVMSwitch).Total),
	}
	var l2s []*cache.Cache // the L2 is shared between cores: count it once
	for _, core := range k.Cores {
		st := core.CPU.Stats()
		c.instructions += st.Instructions
		c.exceptions += st.SWIs + st.Undefs + st.Aborts + st.IRQsTaken
		h := core.CPU.Caches
		d := h.L1D.Stats()
		c.l1Accesses += d.Accesses() + h.L1I.Stats().Accesses()
		c.l1dHits += d.Hits
		c.l1dMisses += d.Misses
		if !slices.Contains(l2s, h.L2) {
			l2s = append(l2s, h.L2)
			c.l2Hits += h.L2.Stats().Hits
			c.l2Misses += h.L2.Stats().Misses
		}
		t := core.CPU.TLB.Stats()
		c.tlbHits += t.Hits
		c.tlbMisses += t.Misses
		c.busyCycles += uint64(core.BusyCycles)
	}
	for _, v := range res.VMStats {
		c.attempts += v.Requests + v.Failures + v.Busy + v.Throttled + v.Retried + v.Faulted
	}
	if p := k.Reconfig; p != nil {
		c.rcHits, c.rcMisses = p.Cache.Stats.Hits, p.Cache.Stats.Misses
		c.prefetchHits, c.prefetchIssued = p.Prefetch.Stats.Hits, p.Prefetch.Stats.Issued
		c.queueMax = p.Queue.Stats.MaxDepth
	}
	for i, ph := range keptPhases {
		c.samples[i] = k.Probes.Get(ph).Samples()
	}
	return c
}

// field is one additive counter of counts.
type field struct {
	name string
	p    *uint64
}

// fields lists the additive counters, in a fixed order.
func (c *counts) fields() []field {
	return []field{
		{"sim cycles", &c.simCycles}, {"core cycles", &c.coreCycles}, {"busy cycles", &c.busyCycles},
		{"switch cycles", &c.switchCycles}, {"instructions", &c.instructions}, {"exceptions", &c.exceptions},
		{"L1 accesses", &c.l1Accesses}, {"L1D hits", &c.l1dHits}, {"L1D misses", &c.l1dMisses},
		{"L2 hits", &c.l2Hits}, {"L2 misses", &c.l2Misses}, {"TLB hits", &c.tlbHits}, {"TLB misses", &c.tlbMisses},
		{"hypercalls", &c.hypercalls}, {"world switches", &c.switches}, {"vIRQs injected", &c.injected},
		{"vIRQs relatched", &c.relatched}, {"epochs", &c.epochs}, {"capability lookups", &c.capLookups},
		{"hw-task runs", &c.requests}, {"hw-task attempts", &c.attempts}, {"reconfigurations", &c.reconfigs},
		{"bitstream cache hits", &c.rcHits}, {"bitstream cache misses", &c.rcMisses},
		{"prefetch hits", &c.prefetchHits}, {"prefetches issued", &c.prefetchIssued},
		{"clones built", &c.built}, {"clones reaped", &c.reaped}, {"pool hits", &c.poolHits},
		{"pool misses", &c.poolMisses}, {"clones", &c.clones}, {"fork cycles", &c.forkCycles},
		{"COW faults", &c.cowFaults}, {"frames copied", &c.framesCopied}, {"frames shared", &c.framesShared},
	}
}

// add pools o into c.
func (c *counts) add(o *counts) {
	a, b := c.fields(), o.fields()
	for i := range a {
		*a[i].p += *b[i].p
	}
	c.queueMax = max(c.queueMax, o.queueMax)
	for i := range c.samples {
		c.samples[i] = append(c.samples[i], o.samples[i]...)
	}
}

// diff describes the first quantity where c and o differ ("" when equal).
func (c *counts) diff(o *counts) string {
	a, b := c.fields(), o.fields()
	for i := range a {
		if *a[i].p != *b[i].p {
			return fmt.Sprintf("%s %d vs %d", a[i].name, *a[i].p, *b[i].p)
		}
	}
	if c.queueMax != o.queueMax {
		return fmt.Sprintf("queue max depth %d vs %d", c.queueMax, o.queueMax)
	}
	for i, ph := range keptPhases {
		if !slices.Equal(c.samples[i], o.samples[i]) {
			return "probe samples " + ph
		}
	}
	return ""
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simMetrics are the simulated end-to-end metrics: what the modelled
// system would show its users, in simulated time.
func (c *counts) simMetrics() []metric {
	fork := metric{name: "sim_fork_us_per_clone", unit: "us", note: "n/a"}
	if c.clones > 0 {
		fork.value = simclock.Cycles(c.forkCycles).Micros() / float64(c.clones)
		fork.note = fmt.Sprintf("n=%d clones", c.clones)
	}
	simS := simclock.Cycles(c.simCycles).Millis() / 1000
	return []metric{
		{name: "sim_s", unit: "s", value: simS},
		{name: "sim_hw_runs_per_s", unit: "1/s", value: float64(c.requests) / simS,
			note: fmt.Sprintf("n=%d runs", c.requests)},
		c.percentile(0, 50, "sim_mgr_entry_p50_us"),
		c.percentile(0, 99, "sim_mgr_entry_p99_us"),
		c.percentile(1, 99, "sim_plirq_entry_p99_us"),
		c.percentile(2, 50, "sim_vm_switch_p50_us"),
		fork,
	}
}

// layerCounts are the per-layer counters of the simulated system.
func (c *counts) layerCounts() []metric {
	pct := func(v uint64) float64 { return 100 * ratio(v, c.coreCycles) }
	return []metric{
		{name: "cpu.instructions", unit: "count", value: float64(c.instructions)},
		{name: "cpu.exceptions", unit: "count", value: float64(c.exceptions)},
		{name: "cache.l1_accesses", unit: "count", value: float64(c.l1Accesses)},
		{name: "cache.l1d_miss_rate", unit: "ratio", value: ratio(c.l1dMisses, c.l1dHits+c.l1dMisses)},
		{name: "cache.l2_miss_rate", unit: "ratio", value: ratio(c.l2Misses, c.l2Hits+c.l2Misses)},
		{name: "tlb.miss_rate", unit: "ratio", value: ratio(c.tlbMisses, c.tlbHits+c.tlbMisses)},
		{name: "nova.hypercalls", unit: "count", value: float64(c.hypercalls)},
		{name: "nova.world_switches", unit: "count", value: float64(c.switches)},
		{name: "nova.virq_injected", unit: "count", value: float64(c.injected)},
		{name: "nova.virq_relatched", unit: "count", value: float64(c.relatched)},
		{name: "nova.epochs", unit: "count", value: float64(c.epochs)},
		{name: "capspace.lookups", unit: "count", value: float64(c.capLookups)},
		{name: "simtime.busy_pct", unit: "%", value: pct(c.busyCycles)},
		{name: "simtime.switch_pct", unit: "%", value: pct(c.switchCycles)},
		// Not a time share: the hypercall probe includes the time a
		// blocking call waits, so its total can exceed the elapsed time.
		c.percentile(3, 50, "simtime.hypercall_p50_us"),
		{name: "reconfig.completions", unit: "count", value: float64(c.reconfigs)},
		{name: "reconfig.cache_hit_ratio", unit: "ratio", value: ratio(c.rcHits, c.rcHits+c.rcMisses)},
		{name: "reconfig.prefetch_useful_ratio", unit: "ratio", value: ratio(c.prefetchHits, c.prefetchIssued)},
		{name: "reconfig.queue_max_depth", unit: "count", value: float64(c.queueMax)},
		{name: "hwtask.useful_ratio", unit: "ratio", value: ratio(c.requests, c.attempts)},
		{name: "pool.built", unit: "count", value: float64(c.built)},
		{name: "pool.reaped", unit: "count", value: float64(c.reaped)},
		{name: "pool.hit_ratio", unit: "ratio", value: ratio(c.poolHits, c.poolHits+c.poolMisses)},
		{name: "cow.faults", unit: "count", value: float64(c.cowFaults)},
		{name: "cow.copy_rate", unit: "ratio", value: ratio(c.framesCopied, c.framesCopied+c.framesShared)},
	}
}

// percentile is the q-th percentile of the pooled samples of one kept
// probe in simulated microseconds, by measure.Probe's nearest rank. The
// note gives the sample count; a percentile with fewer than ten samples
// beyond it is marked n/a.
func (c *counts) percentile(phase int, q float64, name string) metric {
	p := measure.Probe{Keep: true}
	for _, s := range c.samples[phase] {
		p.Add(s)
	}
	m := metric{name: name, unit: "us", value: p.Percentile(q).Micros(), note: fmt.Sprintf("n=%d", p.Count)}
	if rank := uint64(math.Ceil(q / 100 * float64(p.Count))); p.Count-rank < 10 {
		m.note += " n/a"
	}
	return m
}
