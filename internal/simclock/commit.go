package simclock

import (
	"cmp"
	"slices"
)

// The epoch committer carries cross-core effects between per-core cycle
// cursors (plain *Clock instances that advance independently between
// synchronization points). A core never mutates another core's state
// mid-epoch; it posts a closure stamped with its own local cycle instant,
// and the committer fires every posted closure at the next epoch barrier
// in (cycle, core, post order) order. That order is a pure function of
// simulated time, not of the order the run loop visited the cores in.

// commitEntry is one deferred cross-core effect.
type commitEntry struct {
	when Cycles
	core int
	fn   func()
}

// Committer collects cross-core effects during an epoch and replays them
// at the barrier. The zero value is ready to use.
type Committer struct {
	pending []commitEntry // this epoch's posts, in post order
	firing  []commitEntry // reused scratch for the barrier replay
	Commits uint64        // closures fired (observability; not checksummed)
}

// Post appends a deferred effect from core at local instant when.
func (cm *Committer) Post(core int, when Cycles, fn func()) {
	cm.pending = append(cm.pending, commitEntry{when: when, core: core, fn: fn})
}

// Pending reports whether any core posted effects since the last Commit.
func (cm *Committer) Pending() bool { return len(cm.pending) > 0 }

// Commit fires the posted closures in (when, core) order; the sort is
// stable, so same-instant posts from one core fire in program order. A
// closure may itself Post follow-up effects; those land in the next
// Commit, not this one. Returns the number of closures fired.
func (cm *Committer) Commit() int {
	cm.firing, cm.pending = cm.pending, cm.firing[:0]
	if len(cm.firing) == 0 {
		return 0
	}
	slices.SortStableFunc(cm.firing, func(a, b commitEntry) int {
		if c := cmp.Compare(a.when, b.when); c != 0 {
			return c
		}
		return cmp.Compare(a.core, b.core)
	})
	for _, e := range cm.firing {
		e.fn()
	}
	n := len(cm.firing)
	cm.Commits += uint64(n)
	return n
}
