// Fixture trace package: methods on the ring types must be nil-safe
// and lock-free; everything else in the package is unconstrained.
package trace

import "sync"

// Ring is a writer type by name.
type Ring struct {
	buf []int
	n   int
	mu  sync.Mutex
	ch  chan int
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

// Locked takes a lock on the emit path.
func (r *Ring) Locked(v int) {
	if r == nil {
		return
	}
	r.mu.Lock() // want `calls sync\.Mutex\.Lock`
	r.buf = append(r.buf, v)
	r.mu.Unlock() // want `calls sync\.Mutex\.Unlock`
}

// Send synchronizes through a channel.
func (r *Ring) Send(v int) {
	if r == nil {
		return
	}
	r.ch <- v // want `sends on a channel`
}

// Recv blocks on a channel.
func (r *Ring) Recv() int {
	if r == nil {
		return 0
	}
	return <-r.ch // want `receives from a channel`
}

// Spawn hands the ring to another goroutine.
func (r *Ring) Spawn(v int) {
	if r == nil {
		return
	}
	go r.Emit(v) // want `starts a goroutine`
}

// Export is documented post-run-only: the annotation with a reason
// opts it out of the discipline.
//
//detlint:tracewriter post-run exporter; single caller after shutdown
func (r *Ring) Export() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
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

// Counter is not a writer type: locks and bare state access are fine.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Inc is outside the discipline.
func (g *Counter) Inc() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}
