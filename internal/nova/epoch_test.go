package nova

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/sched"
	"repro/internal/simclock"
)

// An idle-heavy multi-core system must advance at event resolution, not
// epoch resolution: with every core parked, the engine fast-forwards all
// clocks to the next event (or the horizon) in one step instead of
// grinding through empty 20 µs epochs. A 100 ms horizon holds 5000
// epochs; a handful of timer pops must cost a comparable handful.
func TestIdleFastForward(t *testing.T) {
	k := dualKernel()
	defer k.Shutdown()
	var pops int
	var tick func(simclock.Cycles)
	tick = func(simclock.Cycles) {
		pops++
		if pops < 20 {
			k.Clock.After(simclock.FromMillis(5), tick)
		}
	}
	k.Clock.After(simclock.FromMillis(5), tick)
	k.RunFor(simclock.FromMillis(100))

	if pops != 20 {
		t.Fatalf("timer pops = %d, want 20", pops)
	}
	if k.Epochs == 0 {
		t.Fatal("multi-core run used no epochs")
	}
	// Each pop can open at most a couple of epoch windows (the pop's own
	// window plus a successor while the callback's effects drain); the
	// naive bound is horizon/epoch = 5000.
	if k.Epochs > 100 {
		t.Errorf("idle-heavy run used %d epochs for 20 events — the idle path is not fast-forwarding", k.Epochs)
	}
}

// The fast-forward must not skip runnable work: a PD that blocks and is
// woken by a timer must run at the wake instant, with the cores' clocks
// converged on the horizon afterwards.
func TestIdleFastForwardWakes(t *testing.T) {
	k := dualKernel()
	defer k.Shutdown()
	var ranAt simclock.Cycles
	pd := k.CreatePD(PDConfig{
		Name: "sleeper", Priority: PrioGuest, Affinity: sched.MaskOf(1),
		StartSuspended: true,
		Guest: &scriptGuest{"sleeper", func(env *Env) {
			ranAt = env.Now()
			env.Hypercall(abi.HcSuspend)
		}},
	})
	k.Clock.After(simclock.FromMillis(40), func(simclock.Cycles) {
		k.wakeFrom(k.Cores[0], pd)
	})
	k.RunFor(simclock.FromMillis(100))
	if ranAt == 0 {
		t.Fatal("sleeper never ran")
	}
	if ranAt < simclock.FromMillis(40) || ranAt > simclock.FromMillis(41) {
		t.Errorf("sleeper ran at %v, want just past 40 ms", ranAt)
	}
	for _, c := range k.Cores {
		if c.Clock.Now() < simclock.FromMillis(100) {
			t.Errorf("core %d stopped at %v, want the 100 ms horizon", c.ID, c.Clock.Now())
		}
	}
}
