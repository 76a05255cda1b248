// Fixture trace package: methods on the ring types must be nil-safe;
// everything else in the package is unconstrained.
package trace

// Ring is a writer type by name.
type Ring struct {
	buf []int
	n   int
}

// Emit guards the nil receiver before touching state: ok.
func (r *Ring) Emit(v int) {
	if r == nil {
		return
	}
	r.buf = append(r.buf, v)
}

// Len combines the nil test with further ||-conditions: ok.
func (r *Ring) Len() int {
	if r == nil || r.n == 0 {
		return 0
	}
	return r.n
}

// EmitTwice only calls further methods on the receiver, which are
// themselves checked: ok without a guard.
func (r *Ring) EmitTwice(v int) {
	r.Emit(v)
	r.Emit(v)
}

// Unsafe touches state with no guard.
func (r *Ring) Unsafe(v int) {
	r.buf = append(r.buf, v) // want `touches receiver state before a nil check`
}

// Export is documented post-run-only: the annotation with a reason
// opts it out of the discipline.
//
//detlint:tracewriter post-run exporter; single caller after shutdown
func (r *Ring) Export() []int {
	return append([]int(nil), r.buf...)
}

// Bare annotations are themselves a finding.
//
//detlint:tracewriter
func (r *Ring) Bare() int { // want `needs a justification`
	return r.n
}

// Tracer is the other writer type; guard conditions may read state
// after the leading nil test.
type Tracer struct {
	rings []*Ring
}

// Core is the canonical accessor shape: ok.
func (t *Tracer) Core(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.rings) {
		return nil
	}
	return t.rings[i]
}

// Counter is not a writer type: bare state access is fine.
type Counter struct {
	n int
}

// Inc is outside the discipline.
func (g *Counter) Inc() {
	g.n++
}
