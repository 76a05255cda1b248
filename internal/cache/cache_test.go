package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/physmem"
)

func TestMissThenHit(t *testing.T) {
	c := New("t", 32<<10, 4)
	pa := physmem.Addr(0x10_0000)
	if hit, _, _ := c.Access(pa, false); hit {
		t.Error("first access hit a cold cache")
	}
	if hit, _, _ := c.Access(pa, false); !hit {
		t.Error("second access missed")
	}
	if hit, _, _ := c.Access(pa+LineSize-1, false); !hit {
		t.Error("same-line access missed")
	}
	if hit, _, _ := c.Access(pa+LineSize, false); hit {
		t.Error("next-line access hit")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("t", 2*LineSize, 2) // one set, 2 ways
	c.Access(0x10_0000, true)    // dirty
	c.Access(0x20_0000, false)
	_, wb, victim := c.Access(0x30_0000, false) // evicts one of the two
	if !victim.Valid {
		t.Fatal("eviction from a full set did not report a victim")
	}
	if victim.Addr != 0x10_0000 && victim.Addr != 0x20_0000 {
		t.Errorf("victim addr = %#x, want one of the two resident lines", victim.Addr)
	}
	if wb != victim.Dirty || (victim.Addr == 0x10_0000) != victim.Dirty {
		t.Errorf("victim = %+v, wb = %v: dirtiness must match the evicted line", victim, wb)
	}
	st := c.Stats()
	if st.Writebacks != uint64(b2i(wb)) {
		t.Errorf("Writebacks = %d, want %d", st.Writebacks, b2i(wb))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The victim's reported address must reconstruct exactly the line that was
// displaced, across many sets and tags.
func TestVictimAddressReconstruction(t *testing.T) {
	c := New("t", 4<<10, 1) // direct-mapped, 128 sets: the victim is forced
	base := physmem.Addr(0x10_0000)
	conflict := physmem.Addr(4 << 10) // same set, different tag (128 sets * 32B)
	for i := 0; i < 10; i++ {
		pa := base + physmem.Addr(i)*LineSize
		c.Access(pa, true)
		_, wb, victim := c.Access(pa+conflict, false) // evicts the only way: pa
		if !victim.Valid || victim.Addr != pa || !victim.Dirty || !wb {
			t.Fatalf("victim = %+v wb=%v, want dirty line at %#x", victim, wb, pa)
		}
	}
}

// HitRun(n) must leave state and stats bit-identical to n hitting Accesses.
func TestHitRunEquivalence(t *testing.T) {
	a, b := New("a", 1<<10, 2), New("b", 1<<10, 2)
	pa := physmem.Addr(0x10_0040)
	a.Access(pa, false)
	b.Access(pa, false)
	// a: five scalar accesses, the fourth a write.
	for i := 0; i < 5; i++ {
		a.Access(pa, i == 3)
	}
	// b: the same five accesses with the repeat hits collapsed.
	b.Access(pa, false) // first of run probes for real
	b.HitRun(pa, false, 2)
	b.Access(pa, true)
	b.HitRun(pa, false, 1)
	a.Access(pa, false) // trailing access on both to expose state skew
	b.Access(pa, false)
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.rng != b.rng {
		t.Errorf("rng diverged: %#x vs %#x", a.rng, b.rng)
	}
	al, _, atag := a.set(pa)
	bl, _, btag := b.set(pa)
	if atag != btag {
		t.Fatal("tag mismatch")
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Errorf("way %d diverged: %+v vs %+v", i, al[i], bl[i])
		}
	}
}

// HitRun on a non-resident line must degrade to real accesses (missing,
// allocating), never silently fabricate hits.
func TestHitRunNotResident(t *testing.T) {
	c := New("t", 1<<10, 2)
	c.HitRun(0x10_0000, false, 3)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss then 2 hits", st)
	}
}

func TestCleanInvalidateAll(t *testing.T) {
	c := New("t", 32<<10, 4)
	c.Access(0x10_0000, true)
	c.Access(0x10_0040, true)
	c.Access(0x10_0080, false)
	if wb := c.CleanInvalidateAll(); wb != 2 {
		t.Errorf("CleanInvalidateAll wrote back %d lines, want 2", wb)
	}
	if c.ResidentLines() != 0 {
		t.Error("lines resident after clean+invalidate")
	}
}

func TestInvalidateLine(t *testing.T) {
	c := New("t", 32<<10, 4)
	c.Access(0x10_0000, true)
	if dirty := c.InvalidateLine(0x10_0000); !dirty {
		t.Error("InvalidateLine lost dirtiness")
	}
	if c.Contains(0x10_0000) {
		t.Error("line survived InvalidateLine")
	}
	if dirty := c.InvalidateLine(0x10_0000); dirty {
		t.Error("second InvalidateLine reported dirty")
	}
}

func TestStatsConsistency(t *testing.T) {
	c := New("t", 1<<10, 2)
	addrs := []physmem.Addr{0, 32, 64, 0, 4096, 8192, 0, 32}
	for _, a := range addrs {
		c.Access(0x10_0000+a, a%64 == 0)
	}
	st := c.Stats()
	if st.Accesses() != uint64(len(addrs)) {
		t.Errorf("Accesses = %d, want %d", st.Accesses(), len(addrs))
	}
	if st.Evictions > st.Misses {
		t.Errorf("evictions %d > misses %d", st.Evictions, st.Misses)
	}
	if st.Writebacks > st.Evictions {
		t.Errorf("writebacks %d > evictions %d", st.Writebacks, st.Evictions)
	}
}

func TestHierarchyCosts(t *testing.T) {
	h := NewA9Hierarchy()
	h.L1D = New("L1D", 32<<10, 1) // direct-mapped: the victim is forced
	pa := physmem.Addr(0x10_0000)
	// Cold: L1 miss + L2 miss.
	if got := h.DataCost(pa, false); got != PenaltyL2Hit+PenaltyDDR {
		t.Errorf("cold access cost = %d, want %d", got, PenaltyL2Hit+PenaltyDDR)
	}
	// Warm L1.
	if got := h.DataCost(pa, false); got != 0 {
		t.Errorf("L1 hit cost = %d, want 0", got)
	}
	// Evict from L1 only: touch one line in the same L1 set. L1D 32KB
	// direct-mapped => same-set stride 32KB, which falls in another L2 set.
	h.DataCost(pa+32<<10, false)
	// pa now out of L1 but still in L2.
	if got := h.DataCost(pa, false); got != PenaltyL2Hit {
		t.Errorf("L2 hit cost = %d, want %d", got, PenaltyL2Hit)
	}
}

// A dirty L1 victim must drain into L2 at the victim line's own address,
// not at the incoming access's address (regression test for the
// Hierarchy.cost modelling bug).
func TestDirtyVictimDrainsAtOwnAddress(t *testing.T) {
	h := &Hierarchy{
		L1I: New("i", 2*LineSize, 2),
		L1D: New("d", LineSize, 1), // one line: the victim is forced
		L2:  New("l2", 8<<10, 4),
	}
	pa1, pa2 := physmem.Addr(0x10_0000), physmem.Addr(0x11_0000)
	h.DataCost(pa1, false) // L1+L2 fill, both clean
	h.DataCost(pa1, true)  // L1 hit: dirty in L1 only
	h.DataCost(pa2, false) // evicts pa1: the dirty victim drains
	if dirty := h.L2.InvalidateLine(pa1); !dirty {
		t.Error("dirty L1 victim did not drain into L2 at its own address")
	}
	if dirty := h.L2.InvalidateLine(pa2); dirty {
		t.Error("incoming read line marked dirty in L2 (drain charged at the wrong address)")
	}
}

func TestHierarchySplitIAndD(t *testing.T) {
	h := NewA9Hierarchy()
	pa := physmem.Addr(0x20_0000)
	h.FetchCost(pa) // warms L1I and L2
	if got := h.DataCost(pa, false); got != PenaltyL2Hit {
		t.Errorf("data access after fetch cost = %d, want L2 hit %d (split L1)", got, PenaltyL2Hit)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ size, ways int }{{100, 4}, {6 * LineSize, 2}} {
		func() {
			defer func() { recover() }()
			New("bad", tc.size, tc.ways)
			t.Errorf("New(%d,%d) did not panic", tc.size, tc.ways)
		}()
	}
}

// Property: hits+misses always equals accesses, and a Contains() right after
// Access() is always true.
func TestPropertyAccessInvariants(t *testing.T) {
	c := New("t", 8<<10, 4)
	var n uint64
	f := func(off uint16, write bool) bool {
		pa := physmem.Addr(0x10_0000 + uint32(off))
		c.Access(pa, write)
		n++
		st := c.Stats()
		return st.Accesses() == n && c.Contains(pa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: resident lines never exceed capacity.
func TestPropertyCapacityBound(t *testing.T) {
	c := New("t", 2<<10, 2)
	capacity := 2 << 10 / LineSize
	f := func(offs []uint16) bool {
		for _, o := range offs {
			c.Access(physmem.Addr(0x10_0000+uint32(o)*8), o%3 == 0)
		}
		return c.ResidentLines() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
