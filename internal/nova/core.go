package nova

import (
	"repro/internal/cpu"
	"repro/internal/simclock"
	"repro/internal/timer"
	"repro/internal/trace"
)

// CoreCtx is one simulated Cortex-A9 core as the kernel sees it: the
// architectural core model, that core's private timer (quantum source),
// the kernel's execution context on that core (its own fetch cursor over
// the shared kernel text), the PD currently resident, and the per-core
// scheduling flags that used to be kernel-global when the reproduction
// pinned everything on CPU0.
type CoreCtx struct {
	ID    int
	CPU   *cpu.CPU
	Timer *timer.PrivateTimer

	// Clock is this core's time cursor. Core 0's clock is the kernel's
	// Clock; on a multi-core machine the other cores advance their own
	// cursors independently between epoch barriers.
	Clock *simclock.Clock

	// ring is this core's trace ring, nil when tracing is off. Every
	// event that happens on this core is emitted through it
	// unconditionally; a nil ring swallows the event.
	ring *trace.Ring

	// Current is the PD whose context is live on this core. It stays
	// resident across the interleaved run loop's window boundaries —
	// a core that keeps running the same PD never re-pays the switch.
	Current *PD

	// kctx is the kernel's execution context on this core.
	kctx *cpu.ExecContext

	// needResched asks the core to return to its scheduler at the next
	// chunk boundary; quantumExpired marks a genuine end-of-slice (the
	// private-timer PPI) as opposed to a pause or cross-core kick.
	needResched    bool
	quantumExpired bool

	// vfpOwner is the PD whose VFP context is live on this core's VFP
	// unit (lazy switch state, Table I) — per-core, as on silicon.
	vfpOwner *PD

	// ipcFastCalls counts same-core synchronous portal-call handoffs
	// taken on this core (Kernel.IPCFastCalls sums).
	ipcFastCalls uint64

	// BusyCycles accumulates simulated time this core spent executing
	// PDs; everything else is idle. Utilization derives from it.
	BusyCycles simclock.Cycles
}

// Utilization returns the fraction of simulated time [0,1] this core
// spent executing protection domains, measured against the global clock.
func (c *CoreCtx) Utilization(now simclock.Cycles) float64 {
	if now == 0 {
		return 0
	}
	return float64(c.BusyCycles) / float64(now)
}

// runCore gives core c one scheduling window bounded by until: the
// single-core reference loop's step. Reports whether the core found
// anything to run.
func (k *Kernel) runCore(c *CoreCtx, until simclock.Cycles) bool {
	pd := k.pickLive(c)
	if pd == nil {
		return false
	}
	k.runCoreEpoch(c, pd, until)
	return true
}

// pickLive returns the PD core c's policy would run next, dequeuing
// retired PDs on the way; nil when c has nothing runnable.
func (k *Kernel) pickLive(c *CoreCtx) *PD {
	for {
		n := k.sched.Pick(c.ID)
		if n == nil {
			return nil
		}
		pd := n.Owner.(*PD)
		if !pd.dead {
			return pd
		}
		k.dequeue(pd)
	}
}

// enqueue makes pd runnable on its home core's runqueue, recording a
// sched_wake on that core when pd was not already queued.
func (k *Kernel) enqueue(pd *PD) {
	if pd.node.Queued() {
		return
	}
	k.sched.Enqueue(&pd.node)
	c := pd.Core
	c.ring.Emit(c.Clock.Now(), trace.KindSchedWake, 0, uint64(pd.ID), uint64(pd.Priority))
}

// dequeue takes pd off its runqueue (suspend), recording a sched_block
// on its home core when pd was queued.
func (k *Kernel) dequeue(pd *PD) {
	if !pd.node.Queued() {
		return
	}
	k.sched.Dequeue(&pd.node)
	c := pd.Core
	c.ring.Emit(c.Clock.Now(), trace.KindSchedBlock, 0, uint64(pd.ID), 0)
}

// unplace retires pd from scheduling for good: it leaves its runqueue
// and its home core's placement count.
func (k *Kernel) unplace(pd *PD) {
	k.dequeue(pd)
	k.sched.Unplace(&pd.node)
}

// activate hands core c to pd and returns when the PD yields or its
// guest exits.
func (k *Kernel) activate(c *CoreCtx, pd *PD) {
	pd.resume()
	// Kernel loop regains the core in SVC, IRQs masked.
	c.CPU.Mode, c.CPU.IRQMasked = cpu.ModeSVC, true
}

// idleUntil advances to the next event (or until) with every core's
// interrupts open — the kernel's WFI loop, entered only when no core has
// runnable work.
func (k *Kernel) idleUntil(until simclock.Cycles) {
	target := until
	if d, ok := k.Clock.NextDeadline(); ok && d < target {
		target = d
	}
	k.Clock.AdvanceTo(target)
	for _, c := range k.Cores {
		c.CPU.IRQMasked = false
		c.CPU.PollIRQ()
		c.CPU.IRQMasked = true
	}
}
