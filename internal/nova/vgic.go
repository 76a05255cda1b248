package nova

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

// VGIC is one virtual machine's virtual interrupt controller (paper
// §III-B, Fig. 2): a record list of the interrupt lines the VM uses, each
// entry tracking the virtual state of that line, plus the VM's registered
// IRQ entry. The physical GIC stays under exclusive kernel control; on
// every VM switch the kernel masks the outgoing VM's lines and unmasks the
// incoming VM's enabled lines (§III-B).
type VGIC struct {
	// entries is indexed by physical interrupt ID.
	entries map[int]*virq

	// order is the record list proper: every registered IRQ ID in
	// ascending order. All iteration over the record list (EnabledLines,
	// AllLines) walks this slice, never the map, so the
	// distributor-op sequence is identical run to run — map iteration
	// order leaked straight into the GIC programming order before.
	order []int

	// Entry is the VM's IRQ handler entry point, registered by the guest.
	// The kernel "injects" a virtual IRQ by scheduling this callback to
	// run in guest context (the guest's RunSlice drains pending vIRQs).
	Entry func(irq int)

	// pending vIRQs injected while the VM was not running (Fig. 6: "the
	// IRQ state remains the same until the next time the VM is scheduled").
	pending []int

	// Injected counts total injections (for the experiment probes).
	Injected uint64

	// Relatched counts injections that arrived while the line was still
	// in service and were latched for redelivery at EOI — the
	// level-triggered re-raise a storm produces.
	Relatched uint64

	// owner is the PD this vGIC belongs to (nil for a detached vGIC).
	// Every state transition (KindVGICInject / KindVGICEOI /
	// KindVGICRelatch) is recorded on the owner's core ring.
	owner *PD
}

type virq struct {
	enabled   bool
	inService bool // injected, not yet EOI'd by the guest
	rePending bool // re-raised while inService; redelivered on EOI
}

// emit records one vGIC transition on the owning PD's core ring.
func (v *VGIC) emit(kind trace.Kind, irq int) {
	if pd := v.owner; pd != nil {
		pd.Core.ring.Emit(pd.Core.Clock.Now(), kind, 0, uint64(irq), uint64(pd.ID))
	}
}

// NewVGIC returns an empty vGIC.
func NewVGIC() *VGIC {
	return &VGIC{entries: make(map[int]*virq)}
}

// Register adds an interrupt line to the VM's record list (disabled).
func (v *VGIC) Register(irq int) {
	if _, ok := v.entries[irq]; ok {
		return
	}
	v.entries[irq] = &virq{}
	i := sort.SearchInts(v.order, irq)
	v.order = append(v.order, 0)
	copy(v.order[i+1:], v.order[i:])
	v.order[i] = irq
}

// Unregister removes a line (task released, VM torn down), purging every
// trace of it: a queued-but-undelivered injection must not dispatch after
// the VM released the line, and a fresh Register must start from a clean
// (not in-service) state.
func (v *VGIC) Unregister(irq int) {
	if _, ok := v.entries[irq]; !ok {
		return
	}
	delete(v.entries, irq)
	i := sort.SearchInts(v.order, irq)
	v.order = append(v.order[:i], v.order[i+1:]...)
	kept := v.pending[:0]
	for _, p := range v.pending {
		if p != irq {
			kept = append(kept, p)
		}
	}
	v.pending = kept
}

// Enable marks a registered line enabled; reports whether the line exists.
func (v *VGIC) Enable(irq int) bool {
	e, ok := v.entries[irq]
	if ok {
		e.enabled = true
	}
	return ok
}

// Disable masks a line in the vGIC. A latched re-raise is dropped: the
// guest explicitly masked the source, so redelivering it on EOI would
// resurrect an interrupt the guest asked not to see.
func (v *VGIC) Disable(irq int) bool {
	e, ok := v.entries[irq]
	if ok {
		e.enabled = false
		e.rePending = false
	}
	return ok
}

// Owns reports whether the line is in this VM's record list.
func (v *VGIC) Owns(irq int) bool {
	_, ok := v.entries[irq]
	return ok
}

// EnabledLines lists, in ascending IRQ order, the lines the kernel must
// unmask when this VM runs.
func (v *VGIC) EnabledLines() []int {
	var out []int
	for _, irq := range v.order {
		if v.entries[irq].enabled {
			out = append(out, irq)
		}
	}
	return out
}

// AllLines lists every registered line in ascending IRQ order (masked on
// switch-out).
func (v *VGIC) AllLines() []int {
	out := make([]int, len(v.order))
	copy(out, v.order)
	return out
}

// Inject queues a virtual interrupt for delivery. The caller (kernel IRQ
// path) has already EOI'd the physical GIC; "it is the guest OS'
// responsibility to manage its own vIRQ state" from here (§III-B).
//
// A line that is still in service (injected, not yet EOI'd) latches a
// re-pending bit instead of dropping the event: the source is
// level-triggered, so the interrupt is redelivered when the guest EOIs.
// Returns whether a new injection was queued now.
func (v *VGIC) Inject(irq int) bool {
	e, ok := v.entries[irq]
	if !ok || !e.enabled {
		return false
	}
	if e.inService {
		if !e.rePending {
			e.rePending = true
			v.Relatched++
			v.emit(trace.KindVGICRelatch, irq)
		}
		return false
	}
	e.inService = true
	v.pending = append(v.pending, irq)
	v.Injected++
	v.emit(trace.KindVGICInject, irq)
	return true
}

// EOI completes a previously injected vIRQ. A re-raise latched while the
// line was in service is re-injected immediately, so level-triggered
// interrupts are never lost under storms.
func (v *VGIC) EOI(irq int) bool {
	e, ok := v.entries[irq]
	if !ok || !e.inService {
		return false
	}
	e.inService = false
	v.emit(trace.KindVGICEOI, irq)
	if e.rePending && e.enabled {
		e.rePending = false
		e.inService = true
		v.pending = append(v.pending, irq)
		v.Injected++
		v.emit(trace.KindVGICInject, irq)
	}
	return true
}

// DrainPending pops all queued injections in arrival order. The guest's
// run loop calls this and dispatches each through its IRQ entry.
func (v *VGIC) DrainPending() []int {
	p := v.pending
	v.pending = nil
	return p
}

// HasPending reports whether injected vIRQs await delivery.
func (v *VGIC) HasPending() bool { return len(v.pending) > 0 }

// snapshotLines captures the record list (IRQ, enable, in-service and
// re-pend bits, in ascending IRQ order) and the queued injections for a
// checkpoint image. Both slices are fresh copies.
func (v *VGIC) snapshotLines() (lines []checkpoint.VGICLine, pending []int) {
	lines = make([]checkpoint.VGICLine, 0, len(v.order))
	for _, irq := range v.order {
		e := v.entries[irq]
		lines = append(lines, checkpoint.VGICLine{
			IRQ: irq, Enabled: e.enabled, InService: e.inService, RePending: e.rePending,
		})
	}
	return lines, append([]int(nil), v.pending...)
}

// restoreLines rebuilds the vGIC from a checkpoint capture, replacing
// whatever record list existed. Counters (Injected/Relatched) are the
// restored VM's own and start at zero on a fresh clone; an in-place
// restore keeps the PD's live counters by design — they are cumulative
// activity statistics, not vCPU state.
func (v *VGIC) restoreLines(lines []checkpoint.VGICLine, pending []int) {
	v.entries = make(map[int]*virq, len(lines))
	v.order = v.order[:0]
	for _, l := range lines {
		v.entries[l.IRQ] = &virq{enabled: l.Enabled, inService: l.InService, rePending: l.RePending}
		v.order = append(v.order, l.IRQ)
	}
	v.pending = append([]int(nil), pending...)
}
