// Boundary fixture: a type named Ring outside internal/trace is not a
// trace ring; the discipline does not apply.
package other

type Ring struct {
	n int
}

func (r *Ring) Bump() {
	r.n++
}
