package pool

import (
	"testing"

	"repro/internal/simclock"
)

// harness records destroyed values; a clone is its build ordinal.
type harness struct {
	destroyed []int
}

func (h *harness) pool(cfg Config) *Pool[int] {
	return New(cfg,
		func(seq int) int { return seq },
		func(v int) { h.destroyed = append(h.destroyed, v) })
}

func TestAcquireIsLIFO(t *testing.T) {
	h := &harness{}
	p := h.pool(Config{Target: 3})
	p.Prewarm(0)
	v, hit := p.Acquire()
	if !hit {
		t.Fatalf("want warm hit, got v=%v hit=%v", v, hit)
	}
	if v != 2 {
		t.Fatalf("acquired seq %v, want the most recently built (2)", v)
	}
	p.Acquire()
	p.Acquire()
	if v, hit := p.Acquire(); hit || v != 3 { // miss: shelf empty
		t.Fatalf("empty-shelf acquire = %v hit=%v, want fresh build 3", v, hit)
	}
	st := p.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Built != 4 || st.Prewarmed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTTLReapingIsDeterministic(t *testing.T) {
	ttl := simclock.FromMillis(1)
	run := func() []int {
		h := &harness{}
		p := h.pool(Config{Target: 4, TTL: ttl, Seed: 7})
		p.Prewarm(0)
		// Jitter spreads deadlines over [ttl, ttl+ttl/8); nothing dies early.
		if n := p.ReapExpired(ttl - 1); n != 0 {
			t.Fatalf("reaped %d before TTL", n)
		}
		// Everything dies by ttl + ttl/8.
		if n := p.ReapExpired(ttl + ttl/8); n != 4 {
			t.Fatalf("reaped %d at TTL+jitter, want 4", n)
		}
		return h.destroyed
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("destroyed %v / %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reap order differs between runs: %v vs %v", a, b)
		}
	}
	// Oldest-first within the shelf.
	for i := range a {
		if a[i] != i {
			t.Fatalf("reap order %v, want oldest-first 0..3", a)
		}
	}
}

func TestZeroTTLNeverReaps(t *testing.T) {
	h := &harness{}
	p := h.pool(Config{Target: 2})
	p.Prewarm(0)
	if n := p.ReapExpired(1 << 40); n != 0 {
		t.Fatalf("reaped %d with TTL disabled", n)
	}
	p.DrainAll()
	if len(h.destroyed) != 2 {
		t.Fatalf("drain destroyed %d, want 2", len(h.destroyed))
	}
	if len(p.shelf) != 0 {
		t.Fatal("shelf not empty after drain")
	}
}

func TestPrewarmTopsUpAfterReap(t *testing.T) {
	h := &harness{}
	ttl := simclock.Cycles(1000)
	p := h.pool(Config{Target: 2, TTL: ttl, Seed: 3})
	p.Prewarm(0)
	p.ReapExpired(ttl * 2)
	if len(p.shelf) != 0 {
		t.Fatal("shelf survived double TTL")
	}
	p.Prewarm(ttl * 2)
	if len(p.shelf) != 2 {
		t.Fatalf("warm = %d after re-prewarm", len(p.shelf))
	}
	// New builds got fresh ordinals, not recycled ones.
	if v, _ := p.Acquire(); v != 3 {
		t.Fatalf("post-reap build ordinal %v, want 3", v)
	}
}
