// Package pool implements a deterministic warm pool of forked VM clones.
// A pool keeps up to Target pre-built clones on one shelf; Acquire pops
// the most recently built one (LIFO — the warmest caches) or builds on
// miss, and a sim-clock TTL with a seeded jitter reaps shelf items that
// sit unused.
//
// The owner supplies build/destroy callbacks, and every timestamp is an
// explicit simulated cycle count passed in by the caller — the pool never
// reads a clock, so it cannot desynchronize sequential and sharded
// engines. Calls must happen at points where the simulation engine is
// stopped (they build and destroy VMs).
package pool

import "repro/internal/simclock"

// Config shapes a pool's policy.
type Config struct {
	// Target is the prewarm level: Prewarm builds until this many
	// unleased clones sit on the shelf.
	Target int
	// TTL is how long a shelf item may sit unleased before ReapExpired
	// destroys it; 0 disables reaping.
	TTL simclock.Cycles
	// Seed drives the deterministic jitter added to each item's reap
	// deadline, de-phasing mass expiry of a batch built in one instant.
	Seed uint64
}

// Stats counts pool activity.
type Stats struct {
	Built     uint64 // clones constructed (misses + prewarms)
	Hits      uint64 // acquires served off the shelf
	Misses    uint64 // acquires that had to build
	Reaped    uint64 // shelf items destroyed by TTL
	Prewarmed uint64 // clones built by Prewarm
}

// item is one shelf entry.
type item[T any] struct {
	v        T
	deadline simclock.Cycles // reap time; 0 = no TTL
}

// Pool is a warm-clone pool over values of type T.
type Pool[T any] struct {
	cfg     Config
	build   func(seq int) T
	destroy func(T)
	shelf   []item[T] // LIFO: acquire pops the back
	seq     int       // next build ordinal
	rng     uint64
	stats   Stats
}

// New builds an empty pool. build forks one clone (seq is the build
// ordinal, usable as a deterministic identity); destroy tears a reaped or
// drained clone down.
func New[T any](cfg Config, build func(seq int) T, destroy func(T)) *Pool[T] {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Pool[T]{cfg: cfg, build: build, destroy: destroy, rng: seed}
}

// xorshift advances the jitter generator (deterministic, seed-derived).
func (p *Pool[T]) xorshift() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

// jitter returns the deadline perturbation for one shelf item: up to an
// eighth of the TTL, so a batch prewarmed in one instant expires spread
// out instead of as a reap storm.
func (p *Pool[T]) jitter() simclock.Cycles {
	span := uint64(p.cfg.TTL / 8)
	if span == 0 {
		return 0
	}
	return simclock.Cycles(p.xorshift() % span)
}

// newItem forks one clone.
func (p *Pool[T]) newItem() item[T] {
	it := item[T]{v: p.build(p.seq)}
	p.seq++
	p.stats.Built++
	return it
}

// Prewarm tops the shelf up to the configured target, stamping each new
// item's reap deadline from now.
func (p *Pool[T]) Prewarm(now simclock.Cycles) {
	for len(p.shelf) < p.cfg.Target {
		it := p.newItem()
		if p.cfg.TTL > 0 {
			it.deadline = now + p.cfg.TTL + p.jitter()
		}
		p.shelf = append(p.shelf, it)
		p.stats.Prewarmed++
	}
}

// Acquire leases a clone: the most recently shelved one (warm hit), or a
// fresh build on miss. The lease is permanent — the pool forgets the
// value; callers own leased clones.
func (p *Pool[T]) Acquire() (v T, hit bool) {
	if n := len(p.shelf); n > 0 {
		it := p.shelf[n-1]
		p.shelf[n-1] = item[T]{}
		p.shelf = p.shelf[:n-1]
		p.stats.Hits++
		return it.v, true
	}
	p.stats.Misses++
	return p.newItem().v, false
}

// ReapExpired destroys every shelf item whose deadline has passed and
// returns how many died. The shelf is scanned front-to-back (oldest
// first), so the destruction sequence is deterministic.
func (p *Pool[T]) ReapExpired(now simclock.Cycles) int {
	reaped := 0
	kept := p.shelf[:0]
	for _, it := range p.shelf {
		if it.deadline != 0 && it.deadline <= now {
			p.destroy(it.v)
			p.stats.Reaped++
			reaped++
		} else {
			kept = append(kept, it)
		}
	}
	clear(p.shelf[len(kept):])
	p.shelf = kept
	return reaped
}

// DrainAll destroys every shelf item (scenario teardown).
func (p *Pool[T]) DrainAll() {
	for _, it := range p.shelf {
		p.destroy(it.v)
	}
	p.shelf = nil
}

// Stats returns a copy of the activity counters.
func (p *Pool[T]) Stats() Stats { return p.stats }
