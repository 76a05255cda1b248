package experiments

import (
	"strings"
	"testing"
)

// TestReconfigSweep drives the dual-core sharing workload through the
// reconfiguration pipeline and asserts the acceptance properties: warm
// reconfigurations are measurably cheaper than cold ones, cache hits
// flow, and concurrent requests queue instead of being rejected.
func TestReconfigSweep(t *testing.T) {
	cfg := DefaultReconfigConfig()
	if testing.Short() {
		cfg.Iterations = 8
	}
	rep := RunReconfigSweep(cfg)
	t.Logf("\n%s", rep)
	checks := rep.Check()
	if !checks.AllHold() {
		t.Errorf("reconfig checks failed: %+v", checks)
	}
	if rep.Errors != 0 {
		t.Errorf("PCAP errors during sweep: %d", rep.Errors)
	}
	if !strings.Contains(rep.Summary, "cache hits=") {
		t.Errorf("summary line missing cache counters: %q", rep.Summary)
	}
}

// TestReconfigSweepTightCache forces eviction pressure (the cache holds
// only a slice of the working set) so the LRU and the history-based
// prefetcher both do real work.
func TestReconfigSweepTightCache(t *testing.T) {
	cfg := DefaultReconfigConfig()
	cfg.CacheBytes = 384 << 10
	if testing.Short() {
		cfg.Iterations = 8
	}
	rep := RunReconfigSweep(cfg)
	t.Logf("\n%s", rep)
	checks := rep.Check()
	if !checks.WarmBelowCold || !checks.TransfersHappen {
		t.Errorf("tight-cache checks failed: %+v", checks)
	}
	if rep.Cache.Evictions == 0 {
		t.Error("tight cache produced no evictions")
	}
	if rep.Prefetch.Issued == 0 {
		t.Error("prefetcher never issued a speculative fill under eviction pressure")
	}
}
