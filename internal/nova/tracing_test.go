package nova

import (
	"testing"

	"repro/internal/gic"
	"repro/internal/sched"
	"repro/internal/trace"
)

// kindCounts tallies a ring's retained events by kind.
func kindCounts(r *trace.Ring) map[trace.Kind]int {
	n := map[trace.Kind]int{}
	for _, e := range r.Events() {
		n[e.Kind]++
	}
	return n
}

// Every runqueue and vGIC transition of a PD is recorded on its home
// core's ring, and only real state changes are events: waking a queued
// PD or blocking an unqueued one records nothing.
func TestTraceEventsLandOnHomeCore(t *testing.T) {
	k := dualKernel()
	defer k.Shutdown()
	tr := k.EnableTrace()
	pd := k.CreatePD(PDConfig{
		Name: "g", Priority: PrioGuest, Affinity: sched.MaskOf(1), StartSuspended: true,
		Guest: &scriptGuest{"g", func(env *Env) {}},
	})
	k.wake(pd)
	k.wake(pd)
	irq := gic.PLIRQBase
	pd.VGIC.Register(irq)
	pd.VGIC.Enable(irq)
	pd.VGIC.Inject(irq)
	pd.VGIC.Inject(irq) // in service: latched
	pd.VGIC.EOI(irq)    // completes, then redelivers the latched re-raise
	k.dequeue(pd)
	k.dequeue(pd)

	if n := tr.Core(0).Len(); n != 0 {
		t.Errorf("core 0 ring holds %d events, want none: %v", n, tr.Core(0).Events())
	}
	got := kindCounts(tr.Core(1))
	want := map[trace.Kind]int{
		trace.KindSchedWake:   1,
		trace.KindSchedBlock:  1,
		trace.KindVGICInject:  2,
		trace.KindVGICRelatch: 1,
		trace.KindVGICEOI:     1,
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("core 1 %s events = %d, want %d", kind, got[kind], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("core 1 event kinds = %v, want exactly %v", got, want)
	}
	for _, e := range tr.Core(1).Events() {
		if e.Kind != trace.KindSchedWake && e.Kind != trace.KindSchedBlock && e.B != uint64(pd.ID) {
			t.Errorf("%s event names PD %d, want %d", e.Kind, e.B, pd.ID)
		}
	}
}

// The reconfiguration pipeline records on the ring of the core whose
// clock it runs on, whether tracing is enabled before or after the
// fabric and the manager service are attached.
func TestTracePipelineFollowsManagerCore(t *testing.T) {
	for _, early := range []bool{true, false} {
		k := dualKernel()
		var tr *trace.Tracer
		if early {
			tr = k.EnableTrace()
		}
		fabricForTest(k)
		svc := k.CreatePD(PDConfig{
			Name: "hwtm", Priority: PrioService, Caps: CapHwManager,
			Affinity: sched.MaskOf(1), StartSuspended: true,
			Guest: &scriptGuest{"hwtm", func(env *Env) {}},
		})
		k.RegisterHwService(svc)
		if !early {
			tr = k.EnableTrace()
		}
		if k.Reconfig.Trace != tr.Core(1) || k.Reconfig.Clock != k.Cores[1].Clock {
			t.Errorf("early=%v: pipeline not bound to the manager core's ring and clock", early)
		}
		k.Shutdown()
	}
}
