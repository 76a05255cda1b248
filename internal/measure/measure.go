// Package measure provides the instrumentation used by the evaluation
// harness: named latency probes accumulating cycle-duration samples. The
// paper's Table III numbers are averages over "a sufficient number of
// iterations" of exactly these phases (HW Manager entry, exit, execution,
// PL IRQ entry); the probes aggregate the same way.
package measure

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// Probe accumulates duration samples for one measured phase.
type Probe struct {
	Count uint64
	Total simclock.Cycles
	Min   simclock.Cycles
	Max   simclock.Cycles

	// Keep retains every sample for percentile reporting (off by
	// default: the Table III probes only need the running aggregates).
	// Set it before the first Add: samples recorded while Keep was off
	// are folded into the aggregates only and cannot be recovered, so a
	// late Keep skews every percentile toward the tail that followed it.
	Keep    bool
	samples []simclock.Cycles
}

// Add records one sample.
func (p *Probe) Add(d simclock.Cycles) {
	if p.Count == 0 || d < p.Min {
		p.Min = d
	}
	if d > p.Max {
		p.Max = d
	}
	p.Count++
	p.Total += d
	if p.Keep {
		p.samples = append(p.samples, d)
	}
}

// MeanCycles returns the average sample in cycles (0 when empty).
func (p *Probe) MeanCycles() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Total) / float64(p.Count)
}

// MeanMicros returns the average sample in microseconds.
func (p *Probe) MeanMicros() float64 {
	return p.MeanCycles() / float64(simclock.CyclesPerMicrosecond)
}

// Percentile returns the q-th percentile (0..100, nearest-rank) of the
// retained samples: the smallest sample with at least q% of the set at
// or below it. q <= 0 (and NaN) return the minimum, q >= 100 the
// maximum; a single-sample probe returns that sample for every q. It
// requires Keep; with no retained samples it returns 0.
func (p *Probe) Percentile(q float64) simclock.Cycles {
	if len(p.samples) == 0 {
		return 0
	}
	sorted := make([]simclock.Cycles, len(p.samples))
	copy(sorted, p.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 || math.IsNaN(q) {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Samples returns a copy of the retained samples (empty without Keep).
func (p *Probe) Samples() []simclock.Cycles {
	out := make([]simclock.Cycles, len(p.samples))
	copy(out, p.samples)
	return out
}

// Set is a collection of named probes.
type Set struct {
	probes map[string]*Probe
}

// NewSet returns an empty probe set.
func NewSet() *Set {
	return &Set{probes: make(map[string]*Probe)}
}

// Get returns (creating if needed) the named probe.
func (s *Set) Get(name string) *Probe {
	p, ok := s.probes[name]
	if !ok {
		p = &Probe{}
		s.probes[name] = p
	}
	return p
}

// Add records a sample on the named probe.
func (s *Set) Add(name string, d simclock.Cycles) {
	s.Get(name).Add(d)
}

// Reset clears all samples but keeps the probe names and their
// sample-retention settings.
func (s *Set) Reset() {
	//detlint:ordered every probe is reset independently; no cross-probe state
	for _, p := range s.probes {
		*p = Probe{Keep: p.Keep}
	}
}

// Names lists probes in sorted order.
func (s *Set) Names() []string {
	out := make([]string, 0, len(s.probes))
	for n := range s.probes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders a compact summary table in sorted-name order, so two
// dumps of the same state are byte-identical.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		p := s.probes[n]
		fmt.Fprintf(&b, "%-16s n=%-6d mean=%8.3fus min=%8.3fus max=%8.3fus\n",
			n, p.Count, p.MeanMicros(), p.Min.Micros(), p.Max.Micros())
	}
	return b.String()
}

// Phase names used by the kernel for the Table III columns.
const (
	PhaseMgrEntry   = "mgr_entry"   // hypercall to manager dispatch
	PhaseMgrExit    = "mgr_exit"    // manager self-suspend to guest resume
	PhaseMgrExec    = "mgr_exec"    // manager request handling
	PhasePLIRQEntry = "plirq_entry" // exception vector to vGIC injection
	PhaseVMSwitch   = "vm_switch"   // full world switch
	PhaseHypercall  = "hypercall"   // generic hypercall round trip
	PhaseIPCCall    = "ipc_call"    // portal IPC call-to-reply round trip

	// Reconfiguration-pipeline phases (internal/reconfig): end-to-end
	// latency of one managed reconfiguration, split by cache outcome,
	// plus the time a ready request waited for the PCAP channel.
	PhaseReconfigCold  = "reconfig_cold"  // SD fill + queue + PCAP download
	PhaseReconfigWarm  = "reconfig_warm"  // cached image: queue + download
	PhaseReconfigQWait = "reconfig_qwait" // ready -> PCAP start
)
