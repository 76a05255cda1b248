package nova

import (
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Tracing wiring: each core's ring (CoreCtx.ring) is the one way the
// kernel records an event. Hypercall and IPC spans, world switches,
// runqueue transitions, vGIC transitions (through the owning PD's core),
// hardware-request and QoS events and epoch commits are emitted through
// it unconditionally, and the reconfiguration pipeline records into the
// ring of the core it runs on (bindManagerClocks). With tracing off every
// ring is nil and swallows the event. Tracing is strictly read-only with
// respect to simulated state — no emission ever advances a clock,
// touches a probe the scenario digest hashes, or iterates a map — so a
// traced run produces byte-identical scenario checksums to an untraced
// one.
//
// Ring writer discipline: each per-core ring is written only on behalf of
// its own core — mid-epoch while that core runs, at the barrier by the
// commit replay — so a ring holds its core's events in simulated order.

// EnableTrace switches tracing on with trace.DefaultCapacity-event rings
// per core. Idempotent: a second call returns the existing tracer. Call
// it before guests run so rings catch the whole scenario.
func (k *Kernel) EnableTrace() *trace.Tracer {
	if k.Tracer != nil {
		return k.Tracer
	}
	t := trace.New(len(k.Cores), trace.DefaultCapacity)
	t.SelectorName = k.portalName
	t.PDName = func(id int) string {
		if id >= 0 && id < len(k.PDs) {
			return k.PDs[id].Name_
		}
		return ""
	}
	k.Tracer = t
	for _, c := range k.Cores {
		c.ring = t.Core(c.ID)
	}
	k.bindManagerClocks() // an attached pipeline picks up its core's ring
	return t
}

// portalName resolves a hypercall selector to its portal object's name
// (empty when out of range, so the exporter falls back to sel_N).
func (k *Kernel) portalName(sel int) string {
	if sel >= 0 && sel < len(k.portalObjs) && k.portalObjs[sel] != nil {
		return k.portalObjs[sel].Name
	}
	return ""
}

// traceCompletionIRQ records the completion-interrupt delivery that closes
// a reconfiguration flow, on the owning client's core.
func (k *Kernel) traceCompletionIRQ(own pcapOwner, irq int) {
	c := own.pd.Core
	c.ring.Emit(c.Clock.Now(), trace.KindCompletionIRQ, own.flow, uint64(irq), uint64(own.pd.ID))
}

// traceHwReq closes the client-side span of one hardware-task request:
// from hypercall entry to the wake that delivered the reply. Emitted
// after resume (req.ID is stable by then on both the same-core and
// cross-core paths), backdated to the entry stamp.
func (k *Kernel) traceHwReq(c *CoreCtx, t0 simclock.Cycles, req *HwRequest) {
	c.ring.EmitSpan(t0, since(c.Clock.Now(), t0),
		trace.KindHwReq, uint64(req.ID), uint64(req.TaskID), uint64(req.reply))
}
