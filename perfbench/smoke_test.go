package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// smokeMs is each workload's short horizon for the smoke test.
var smokeMs = map[string]float64{"codec-stream": 40, "exit-storm": 20, "fork-fleet": 10}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// printed parses the report's metric lines into name -> "value unit".
func printed(t *testing.T, report string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "metric" {
			continue
		}
		if len(f) < 4 {
			t.Errorf("metric line without a unit: %q", line)
			continue
		}
		out[f[1]] = f[2] + " " + f[3]
	}
	return out
}

// TestSmoke runs every workload through the whole benchmark at a short
// horizon, untraced and traced, twice each. Every run must pass its
// oracle check, print every named metric with a unit, put exactly the
// declared metrics in its JSON result, and print the same simulated
// metrics and counters both times.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	named := []string{"failed_runs", "sim_s", "sim_hw_runs_per_s", "sim_mgr_entry_p50_us",
		"sim_mgr_entry_p99_us", "sim_plirq_entry_p99_us", "sim_vm_switch_p50_us", "sim_fork_us_per_clone"}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want, extra := e2e, named
				if trace {
					want, extra = layer, nil
				}
				var first map[string]string
				for i := 0; i < 2; i++ {
					var buf bytes.Buffer
					res, err := bench(config{workload: wl.name, seed: 5, trace: trace, runMs: smokeMs[wl.name]}, &buf)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < wl.seeds {
						t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, buf.String())
					}
					got := printed(t, buf.String())
					for _, n := range extra {
						if got[n] == "" {
							t.Errorf("trace=%v: %s not printed", trace, n)
						}
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("trace=%v: JSON has %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
					}
					for n, unit := range want {
						if m, ok := res.Metrics[n]; !ok || m.Unit != unit {
							t.Errorf("trace=%v: JSON metric %s = %+v, want unit %q", trace, n, m, unit)
						}
						if got[n] == "" {
							t.Errorf("trace=%v: %s not printed", trace, n)
						}
					}
					if first == nil {
						first = got
						continue
					}
					for n, v := range got {
						if deterministic(n) && first[n] != v {
							t.Errorf("trace=%v: %s differs between runs: %s vs %s", trace, n, first[n], v)
						}
					}
				}
			}
		})
	}
}

// deterministic reports whether a metric is simulated, not host-measured.
func deterministic(name string) bool {
	if strings.HasPrefix(name, "host.") || strings.HasPrefix(name, "span.") || name == "trace_overhead_pct" {
		return false
	}
	return !slices.Contains(endToEnd, name)
}

// TestKeepLeavesChecksum checks that retaining probe samples, which the
// benchmark turns on after Build, changes no simulated state, and that
// the batched and scalar memory paths agree.
func TestKeepLeavesChecksum(t *testing.T) {
	for _, wl := range workloads {
		spec := wl.spec(subSeeds(defaultSeed, 1)[0], smokeMs[wl.name])
		kept, err := runRep(spec, repOpts{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := runRep(spec, repOpts{noKeep: true})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := runRep(spec, repOpts{scalar: true})
		if err != nil {
			t.Fatal(err)
		}
		if kept.res.Checksum != plain.res.Checksum || kept.res.Checksum != scalar.res.Checksum {
			t.Errorf("%s: checksum kept %016x, not kept %016x, scalar %016x",
				wl.name, kept.res.Checksum, plain.res.Checksum, scalar.res.Checksum)
		}
	}
}

// TestPinnedOracles recomputes the default seed's oracle checksums (the
// sequential engine on the scalar memory path) at the full horizon,
// checks that the batched memory path agrees, and compares them with the
// pinned values. On a deliberate change to simulated behaviour, paste
// the printed values into workloads.go.
func TestPinnedOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon runs")
	}
	for _, wl := range workloads {
		var lits []string
		var got []uint64
		for _, s := range subSeeds(defaultSeed, wl.seeds) {
			spec := wl.spec(s, wl.runMs)
			o, err := runRep(spec, repOpts{scalar: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(spec, repOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if b.res.Checksum != o.res.Checksum {
				t.Errorf("%s seed %d: batched %016x, scalar oracle %016x; %s",
					wl.name, s, b.res.Checksum, o.res.Checksum, firstDiff(o.res.Detail, b.res.Detail))
			}
			got = append(got, o.res.Checksum)
			lits = append(lits, fmt.Sprintf("0x%016x", o.res.Checksum))
		}
		t.Logf("%s pinned: []uint64{%s}", wl.name, strings.Join(lits, ", "))
		if fmt.Sprint(got) != fmt.Sprint(wl.pinned) {
			t.Errorf("%s: oracle checksums differ from the pinned ones", wl.name)
		}
	}
}
