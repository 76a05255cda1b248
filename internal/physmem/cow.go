package physmem

import "fmt"

// Copy-on-write frame sharing. A checkpoint image pins the frames of a
// quiesced guest; each clone forked from the image takes one reference
// per mapped frame. Writes through a clone's read-only mapping break the
// share: the kernel copies the frame into the clone's private arena and
// drops the reference here. A pinned frame is never freed while the
// image exists, however many clones come and go; an unpinned frame is
// reclaimed when its last reference drops.

// frameRef is the sharing state of one 4 KB frame.
type frameRef struct {
	refs   int32
	pinned bool
}

// ref returns the sharing state of the frame at fb, creating it (and the
// table) on first use.
func (b *Bus) ref(fb Addr) *frameRef {
	if b.cowRefs == nil {
		b.cowRefs = map[Addr]*frameRef{}
	}
	r := b.cowRefs[fb]
	if r == nil {
		r = &frameRef{}
		b.cowRefs[fb] = r
	}
	return r
}

// frameBase rounds a down to its frame base address.
func frameBase(a Addr) Addr { return a &^ (FrameSize - 1) }

// Materialize force-allocates the backing frame for a RAM address.
func (b *Bus) Materialize(a Addr) {
	if !isRAM(a) {
		panic(fmt.Sprintf("physmem: materialize of non-RAM address %#08x", uint32(a)))
	}
	b.frame(a)
}

// Pin marks the frame containing a as image-owned: it is materialized
// immediately and survives until Unpin, regardless of the refcount.
func (b *Bus) Pin(a Addr) {
	b.Materialize(a)
	b.ref(frameBase(a)).pinned = true
}

// Unpin releases the image's hold on the frame. If no clone references
// remain the frame is reclaimed.
func (b *Bus) Unpin(a Addr) {
	fb := frameBase(a)
	r := b.cowRefs[fb]
	if r == nil || !r.pinned {
		panic(fmt.Sprintf("physmem: unpin of unpinned frame %#08x", uint32(fb)))
	}
	r.pinned = false
	if r.refs == 0 {
		b.reclaim(fb)
	}
}

// Share takes one clone reference on the frame containing a.
func (b *Bus) Share(a Addr) {
	b.Materialize(a)
	b.ref(frameBase(a)).refs++
}

// Release drops one clone reference and returns the remaining count. The
// frame is reclaimed when the count reaches zero and no image pins it.
func (b *Bus) Release(a Addr) int {
	fb := frameBase(a)
	r := b.cowRefs[fb]
	if r == nil || r.refs == 0 {
		panic(fmt.Sprintf("physmem: release of unshared frame %#08x", uint32(fb)))
	}
	r.refs--
	if r.refs == 0 && !r.pinned {
		b.reclaim(fb)
	}
	return int(r.refs)
}

// Refs returns the clone reference count on the frame containing a.
func (b *Bus) Refs(a Addr) int {
	if r := b.cowRefs[frameBase(a)]; r != nil {
		return int(r.refs)
	}
	return 0
}

// Pinned reports whether an image pins the frame containing a.
func (b *Bus) Pinned(a Addr) bool {
	if r := b.cowRefs[frameBase(a)]; r != nil {
		return r.pinned
	}
	return false
}

// Allocated reports whether the frame containing a has a backing buffer
// (reclaimed and never-touched frames read as zero once re-allocated).
func (b *Bus) Allocated(a Addr) bool {
	if a >= DDRBase && uint64(a) < uint64(DDRBase)+uint64(DDRSize) {
		return b.ddr[(a-DDRBase)>>FrameShift] != nil
	}
	if a >= OCMBase && uint64(a) < uint64(OCMBase)+uint64(OCMSize) {
		return b.ocm[(a-OCMBase)>>FrameShift] != nil
	}
	return false
}

// reclaim drops the backing buffer and the refcount entry.
func (b *Bus) reclaim(fb Addr) {
	delete(b.cowRefs, fb)
	if fb >= DDRBase && uint64(fb) < uint64(DDRBase)+uint64(DDRSize) {
		if b.ddr[(fb-DDRBase)>>FrameShift] != nil {
			b.ddr[(fb-DDRBase)>>FrameShift] = nil
			b.touched--
		}
		return
	}
	if b.ocm[(fb-OCMBase)>>FrameShift] != nil {
		b.ocm[(fb-OCMBase)>>FrameShift] = nil
		b.touched--
	}
}

// CopyFrame copies the 4 KB frame at src over the frame at dst (both
// frame-aligned RAM addresses). This is the COW break's data move; the
// caller charges its simulated cost.
func (b *Bus) CopyFrame(dst, src Addr) {
	if dst&(FrameSize-1) != 0 || src&(FrameSize-1) != 0 {
		panic(fmt.Sprintf("physmem: unaligned frame copy %#08x <- %#08x", uint32(dst), uint32(src)))
	}
	*b.frame(dst) = *b.frame(src)
}

// SnapshotFrame returns a copy of the frame's current contents (used by
// in-place checkpoint images, which own their bytes).
func (b *Bus) SnapshotFrame(a Addr) []byte {
	out := make([]byte, FrameSize)
	copy(out, b.frame(frameBase(a))[:])
	return out
}

// LoadFrame overwrites the frame at a with p (at most one frame).
func (b *Bus) LoadFrame(a Addr, p []byte) {
	if len(p) > FrameSize {
		panic("physmem: LoadFrame payload exceeds a frame")
	}
	copy(b.frame(frameBase(a))[:], p)
}
