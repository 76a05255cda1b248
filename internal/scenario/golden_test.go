package scenario

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenChecksums pins every short-suite scenario's state checksum
// against testdata/golden.txt. The determinism tests compare runs with
// each other; this one compares them with a checked-in value, so a change
// that alters simulated behaviour fails here even if it is self-consistent.
// If the drift is intended, replace the file with the text the failure
// prints and explain why in the change log.
func TestGoldenChecksums(t *testing.T) {
	var b strings.Builder
	b.WriteString("# short-suite scenario checksums: <scenario> <checksum>\n")
	for _, r := range RunSuite(Suite(true)) {
		fmt.Fprintf(&b, "%s %016x\n", r.Name, r.Checksum)
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
