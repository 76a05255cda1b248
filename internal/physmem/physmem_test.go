package physmem

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRAMRoundTrip32(t *testing.T) {
	b := NewBus()
	addrs := []Addr{DDRBase, DDRBase + 4, DDRBase + 0x1000, OCMBase, OCMBase + 0x100}
	for i, a := range addrs {
		want := uint32(0xDEAD0000 + i)
		if err := b.Write32(a, want); err != nil {
			t.Fatalf("Write32(%#x): %v", a, err)
		}
		got, err := b.Read32(a)
		if err != nil {
			t.Fatalf("Read32(%#x): %v", a, err)
		}
		if got != want {
			t.Errorf("Read32(%#x) = %#x, want %#x", a, got, want)
		}
	}
}

func TestRAMZeroInitialized(t *testing.T) {
	b := NewBus()
	v, err := b.Read32(DDRBase + 0x2345_0 & ^Addr(3))
	if err != nil || v != 0 {
		t.Errorf("fresh RAM read = %#x,%v, want 0,nil", v, err)
	}
}

func TestFrameStraddle(t *testing.T) {
	b := NewBus()
	a := DDRBase + FrameSize - 2 // word crosses frame boundary
	if err := b.Write32(a, 0x11223344); err != nil {
		t.Fatalf("straddling write: %v", err)
	}
	got, err := b.Read32(a)
	if err != nil || got != 0x11223344 {
		t.Errorf("straddling read = %#x,%v want 0x11223344,nil", got, err)
	}
}

func TestBusErrorOnHole(t *testing.T) {
	b := NewBus()
	hole := Addr(0xF000_0000) // no RAM, no device
	if _, err := b.Read32(hole); err == nil {
		t.Error("read from hole succeeded, want BusError")
	}
	if err := b.Write32(hole, 1); err == nil {
		t.Error("write to hole succeeded, want BusError")
	}
	be, ok := func() (e *BusError, ok bool) {
		err := b.Write32(hole, 1)
		e, ok = err.(*BusError)
		return
	}()
	if !ok || !be.Write || be.Addr != hole {
		t.Errorf("BusError fields wrong: %+v ok=%v", be, ok)
	}
}

type fakeDev struct {
	name string
	regs map[Addr]uint32
	log  []Addr
}

func (d *fakeDev) Name() string { return d.name }
func (d *fakeDev) ReadReg(off Addr) uint32 {
	d.log = append(d.log, off)
	return d.regs[off]
}
func (d *fakeDev) WriteReg(off Addr, v uint32) { d.regs[off] = v }

func TestDeviceDispatch(t *testing.T) {
	b := NewBus()
	d := &fakeDev{name: "uart", regs: map[Addr]uint32{}}
	b.MapDevice(UARTBase, 0x1000, d)
	if err := b.Write32(UARTBase+0x30, 0x55); err != nil {
		t.Fatalf("device write: %v", err)
	}
	v, err := b.Read32(UARTBase + 0x30)
	if err != nil || v != 0x55 {
		t.Errorf("device read = %#x,%v want 0x55,nil", v, err)
	}
	if len(d.log) != 1 || d.log[0] != 0x30 {
		t.Errorf("device saw offsets %v, want [0x30]", d.log)
	}
}

func TestOverlappingWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping MapDevice did not panic")
		}
	}()
	b := NewBus()
	b.MapDevice(UARTBase, 0x1000, &fakeDev{name: "a", regs: map[Addr]uint32{}})
	b.MapDevice(UARTBase+0x800, 0x1000, &fakeDev{name: "b", regs: map[Addr]uint32{}})
}

func TestBulkBytes(t *testing.T) {
	b := NewBus()
	payload := make([]byte, 3*FrameSize+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	base := DDRBase + 0x100
	if err := b.WriteBytes(base, payload); err != nil {
		t.Fatalf("WriteBytes: %v", err)
	}
	got, err := b.ReadBytes(base, len(payload))
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("bulk round-trip mismatch")
	}
}

func TestSparseAllocation(t *testing.T) {
	b := NewBus()
	if b.TouchedFrames() != 0 {
		t.Fatalf("fresh bus has %d frames", b.TouchedFrames())
	}
	_ = b.Write32(DDRBase, 1)
	_ = b.Write32(DDRBase+100<<20, 1)
	if got := b.TouchedFrames(); got != 2 {
		t.Errorf("TouchedFrames = %d, want 2", got)
	}
}

// Property: any word written to any valid DDR address reads back identically.
func TestPropertyWordRoundTrip(t *testing.T) {
	b := NewBus()
	f := func(off uint32, v uint32) bool {
		a := DDRBase + Addr(off%(64<<20))
		if err := b.Write32(a, v); err != nil {
			return false
		}
		got, err := b.Read32(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refReadBytes and refWriteBytes are the byte-at-a-time oracles for the
// frame-granular bulk copies.
func refReadBytes(b *Bus, a Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := b.Read8(a + Addr(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func refWriteBytes(b *Bus, a Addr, p []byte) error {
	for i, v := range p {
		if err := b.Write8(a+Addr(i), v); err != nil {
			return err
		}
	}
	return nil
}

// busErrAddr returns the address of a *BusError, failing on anything else.
func busErrAddr(t *testing.T, err error, write bool) Addr {
	t.Helper()
	be, ok := err.(*BusError)
	if !ok || be.Write != write {
		t.Fatalf("error %v, want *BusError with Write=%v", err, write)
	}
	return be.Addr
}

// sameFrames fails unless both buses hold the same allocated frames with
// the same contents.
func sameFrames(t *testing.T, got, want *Bus) {
	t.Helper()
	if g, w := got.TouchedFrames(), want.TouchedFrames(); g != w {
		t.Fatalf("TouchedFrames = %d, reference %d", g, w)
	}
	for _, tbl := range [][2][]*frameBuf{{got.ddr, want.ddr}, {got.ocm, want.ocm}} {
		for i := range tbl[0] {
			g, w := tbl[0][i], tbl[1][i]
			if (g == nil) != (w == nil) || (g != nil && *g != *w) {
				t.Fatalf("frame %d differs from the reference", i)
			}
		}
	}
}

func TestBulkCopyMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	fast, ref := NewBus(), NewBus()
	for i := 0; i < 300; i++ {
		a := DDRBase + Addr(rng.IntN(16*FrameSize))
		var n int
		switch i % 4 {
		case 0:
			n = 0
		case 1:
			n = rng.IntN(FrameSize) // straddles at most one boundary
		default:
			n = rng.IntN(5 * FrameSize) // several boundaries
		}
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		if i%2 == 0 {
			if err := fast.WriteBytes(a, p); err != nil {
				t.Fatalf("WriteBytes(%#x, %d): %v", a, n, err)
			}
			_ = refWriteBytes(ref, a, p)
		} else {
			got, err := fast.ReadBytes(a, n)
			want, _ := refReadBytes(ref, a, n)
			if err != nil || !bytes.Equal(got, want) || len(got) != n {
				t.Fatalf("ReadBytes(%#x, %d) = %d bytes, %v; differs from the byte loop", a, n, len(got), err)
			}
		}
	}
	sameFrames(t, fast, ref)
}

func TestBulkCopyPastDDRTop(t *testing.T) {
	top := DDRBase + DDRSize
	a := top - 2*FrameSize - 100
	p := bytes.Repeat([]byte{0xA5}, 3*FrameSize)

	fast, ref := NewBus(), NewBus()
	werr := fast.WriteBytes(a, p)
	wref := refWriteBytes(ref, a, p)
	if g, w := busErrAddr(t, werr, true), busErrAddr(t, wref, true); g != w || g != top {
		t.Errorf("write error at %#x, reference %#x, want %#x", g, w, top)
	}
	sameFrames(t, fast, ref)

	fast, ref = NewBus(), NewBus()
	got, rerr := fast.ReadBytes(a, len(p))
	_, rref := refReadBytes(ref, a, len(p))
	if got != nil {
		t.Errorf("failed read returned %d bytes, want nil", len(got))
	}
	if g, w := busErrAddr(t, rerr, false), busErrAddr(t, rref, false); g != w || g != top {
		t.Errorf("read error at %#x, reference %#x, want %#x", g, w, top)
	}
	sameFrames(t, fast, ref) // frames before the failure materialized alike
}

func TestBulkCopyWrapsPastTopOfOCM(t *testing.T) {
	a := Addr(0xFFFF_FFF0) // last 16 bytes of OCM
	b := NewBus()
	if err := b.WriteBytes(a, make([]byte, 64)); busErrAddr(t, err, true) != 0 {
		t.Errorf("write wrapping past 2^32 failed at %v, want address 0", err)
	}
	buf := make([]byte, 64)
	if err := b.ReadInto(buf, a); busErrAddr(t, err, false) != 0 {
		t.Errorf("read wrapping past 2^32 failed at %v, want address 0", err)
	}
	hole := Addr(0xF000_0010) // unaligned, in no RAM region
	if err := b.ReadInto(buf, hole); busErrAddr(t, err, false) != hole {
		t.Errorf("read from a hole failed at %v, want %#x", err, hole)
	}
}
