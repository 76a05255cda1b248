package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// The observability contract: tracing must be a pure observer. Every
// suite scenario run with tracing on must produce the byte-identical
// state dump and checksum of the untraced run. Any trace emission that
// advances a clock, perturbs a probe, or reorders a cross-core effect
// diverges here.
//
// The trace stream itself is pinned too: each traced scenario's event
// total and an FNV-64a digest of its Chrome export must match
// testdata/trace_golden.txt, so a change to the instrumentation that
// adds, drops or reorders an event fails here. If the drift is intended,
// replace the file with the text the failure prints and explain why in
// the change log.
func TestTraceDoesNotPerturbChecksums(t *testing.T) {
	specs := Suite(true)
	traced := make([]Spec, len(specs))
	for i, s := range specs {
		s.Trace = true
		traced[i] = s
	}
	all := RunSuite(append(specs, traced...))
	refs, gots := all[:len(specs)], all[len(specs):]
	var pin strings.Builder
	pin.WriteString("# short-suite trace stream: <scenario> <events emitted> <fnv64a of Chrome JSON>\n")
	for i, ref := range refs {
		got := gots[i]
		raw, err := got.Trace.ChromeJSON()
		if err != nil {
			t.Fatalf("%s: ChromeJSON: %v", ref.Name, err)
		}
		h := fnv.New64a()
		h.Write(raw)
		fmt.Fprintf(&pin, "%s %d %016x\n", ref.Name, got.Trace.Total(), h.Sum64())
		if got.TraceEvents == 0 {
			t.Errorf("%s: traced run emitted no events", ref.Name)
		}
		if got.Checksum != ref.Checksum {
			t.Errorf("%s: traced checksum %016x != untraced %016x\nflight recorder:\n%s",
				ref.Name, got.Checksum, ref.Checksum, got.Trace.FlightDump(64))
			continue
		}
		if got.Detail != ref.Detail {
			t.Errorf("%s: traced state dump diverged with equal checksum (hash collision?)", ref.Name)
		}
	}
	const path = "testdata/trace_golden.txt"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading trace golden file: %v\nreplacement %s:\n%s", err, path, pin.String())
	}
	if string(want) != pin.String() {
		t.Errorf("trace stream drifted from %s.\n--- want ---\n%s--- replacement %s ---\n%s", path, want, path, pin.String())
	}
}

// A traced reconfig-thrash run must export valid Chrome-trace JSON
// containing at least one complete causal span chain — client hypercall
// span, PCAP download start, completion IRQ — stitched by one flow id
// across both cores (clients live on core 0, the manager on core 1).
func TestReconfigTraceCausalChain(t *testing.T) {
	spec, ok := FindSpec("reconfig-thrash", true)
	if !ok {
		t.Fatal("reconfig-thrash spec missing")
	}
	spec.Trace = true
	res := Build(spec).Run()
	if res.Trace == nil {
		t.Fatal("traced run returned no tracer")
	}
	raw, err := res.Trace.ChromeJSON()
	if err != nil {
		t.Fatalf("ChromeJSON: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// Collect, per flow id, which chain stages appeared and on which cores.
	type chain struct {
		hwreq, pcap, irq bool
		tids             map[int]bool
	}
	chains := map[float64]*chain{}
	for _, e := range doc.TraceEvents {
		flow, ok := e.Args["flow"].(float64)
		if !ok {
			continue
		}
		c := chains[flow]
		if c == nil {
			c = &chain{tids: map[int]bool{}}
			chains[flow] = c
		}
		c.tids[e.TID] = true
		switch {
		case strings.HasPrefix(e.Name, "hwreq#") && e.Ph == "X":
			c.hwreq = true
		case strings.HasPrefix(e.Name, "pcap_start"):
			c.pcap = true
		case e.Name == "completion_irq":
			c.irq = true
		}
	}
	for _, c := range chains {
		if c.hwreq && c.pcap && c.irq && len(c.tids) >= 2 {
			return // found a complete cross-core chain
		}
	}
	t.Fatalf("no complete causal chain (hwreq span + pcap_start + completion_irq across >=2 cores) among %d flows\nflight recorder:\n%s",
		len(chains), res.Trace.FlightDump(48))
}
