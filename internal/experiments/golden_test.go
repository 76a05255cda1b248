package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// goldenPhases are the Table III probes the row goldens cover.
var goldenPhases = []string{
	measure.PhaseMgrEntry, measure.PhaseMgrExit, measure.PhaseMgrExec,
	measure.PhasePLIRQEntry, measure.PhaseVMSwitch,
}

// probeKey is one probe's full aggregate identity (count, total, min, max)
// so two runs can be compared sample-for-sample.
type probeKey struct {
	Count           uint64
	Total, Min, Max simclock.Cycles
}

func probeDigest(t *testing.T, s *measure.Set) map[string]probeKey {
	t.Helper()
	out := map[string]probeKey{}
	for _, ph := range goldenPhases {
		p := s.Get(ph)
		out[ph] = probeKey{Count: p.Count, Total: p.Total, Min: p.Min, Max: p.Max}
	}
	return out
}

// goldenRowConfig is the 2-guest Table III row both golden tests run.
func goldenRowConfig() Config {
	cfg := testConfig(2, 8)
	cfg.Warmup = 2
	return cfg
}

// Two full RunTable3Row runs from identical configurations must be
// bit-identical: same probe counts, same cycle totals, same extremes.
// This is the golden determinism guarantee the batched memory path must
// not break — the simulation derives everything from the cycle clock,
// never from host state.
func TestGoldenTable3RowDeterminism(t *testing.T) {
	run := func() (Row, map[string]probeKey, simclock.Cycles) {
		c := goldenRowConfig()
		sys := BuildVirtSystem(c)
		defer sys.Kernel.Shutdown()
		probes := sys.RunToCompletion(safetyHorizon(c))
		row := rowFrom("2 OS", probes)
		return row, probeDigest(t, probes), sys.Kernel.Clock.Now()
	}

	row1, probes1, end1 := run()
	row2, probes2, end2 := run()

	if end1 != end2 {
		t.Fatalf("final clock diverged across identical runs: %d vs %d", end1, end2)
	}
	if row1 != row2 {
		t.Fatalf("Table III row diverged across identical runs:\n  %+v\n  %+v", row1, row2)
	}
	for ph, p1 := range probes1 {
		if p2 := probes2[ph]; p1 != p2 {
			t.Errorf("probe %v diverged:\n  %+v\n  %+v", ph, p1, p2)
		}
	}
}

// TestGoldenTable3Rows pins the golden row's final clock and probe
// aggregates in every BuildVirtSystem branch against testdata/golden.txt:
// the paper's single-core setup, the dual-core partitioning, dual-core
// with a bitstream-cache budget small enough to force evictions, and
// three single-core ablations of the paper's design choices. A drift
// means simulated behaviour changed; if that is intended, replace the
// file with the text the failure prints and explain why in the change
// log. Independently of the file, each ablation must keep the direction
// the paper argues for.
func TestGoldenTable3Rows(t *testing.T) {
	branches := []struct {
		name       string
		cores      int
		cacheBytes uint32
		ablate     func(*VirtSystem)
	}{
		{"1core", 1, 0, nil},
		{"2core", 2, 0, nil},
		{"2core-cache192k", 2, 192 << 10, nil},
		// Table I: eager VFP save/restore on every world switch instead
		// of the lazy policy.
		{"1core-eager-vfp", 1, 0, func(s *VirtSystem) { s.Kernel.EagerVFP = true }},
		// §III-C: a full TLB flush on every world switch instead of
		// ASID-tagged entries.
		{"1core-flush-tlb", 1, 0, func(s *VirtSystem) { s.Kernel.FlushTLBOnSwitch = true }},
		// §IV-E: the Hardware Task Manager service demoted to guest
		// priority, so requests wait for the round-robin. scenario.Build
		// creates the service PD first.
		{"1core-guest-prio-mgr", 1, 0, func(s *VirtSystem) { s.Kernel.PDs[0].Priority = nova.PrioGuest }},
	}
	var b strings.Builder
	b.WriteString("# Table III golden row (2 guests, 2+8 requests each) per BuildVirtSystem branch:\n")
	b.WriteString("# <branch> clock <cycles> | <branch> probe <phase> <count> <total> <min> <max>\n")
	means := map[string]map[string]float64{}
	for _, br := range branches {
		c := goldenRowConfig()
		c.Cores = br.cores
		c.CacheBytes = br.cacheBytes
		sys := BuildVirtSystem(c)
		if br.ablate != nil {
			br.ablate(sys)
		}
		probes := sys.RunToCompletion(safetyHorizon(c))
		fmt.Fprintf(&b, "%s clock %d\n", br.name, sys.Kernel.Clock.Now())
		means[br.name] = map[string]float64{}
		for _, ph := range goldenPhases {
			p := probes.Get(ph)
			fmt.Fprintf(&b, "%s probe %s %d %d %d %d\n", br.name, ph, p.Count, p.Total, p.Min, p.Max)
			means[br.name][ph] = p.MeanMicros()
		}
		sys.Kernel.Shutdown()
	}

	base := means["1core"]
	if lazy, eager := base[measure.PhaseVMSwitch], means["1core-eager-vfp"][measure.PhaseVMSwitch]; eager <= lazy {
		t.Errorf("eager VFP vm_switch mean %.3f us is not above lazy %.3f us", eager, lazy)
	}
	if asid, flush := base[measure.PhaseMgrEntry], means["1core-flush-tlb"][measure.PhaseMgrEntry]; flush <= asid {
		t.Errorf("flush-on-switch mgr_entry mean %.3f us is not above ASID-tagged %.3f us", flush, asid)
	}
	if svc, guest := base[measure.PhaseMgrEntry], means["1core-guest-prio-mgr"][measure.PhaseMgrEntry]; guest <= 100*svc {
		t.Errorf("guest-priority manager mgr_entry mean %.3f us is not above 100x service priority (%.3f us)", guest, svc)
	}

	const path = "testdata/golden.txt"
	got := b.String()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v\nreplacement %s:\n%s", err, path, got)
	}
	if string(want) != got {
		t.Errorf("simulated behaviour drifted from %s.\n--- want ---\n%s--- replacement %s ---\n%s", path, want, path, got)
	}
}
