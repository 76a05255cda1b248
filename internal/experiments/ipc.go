package experiments

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/measure"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// IPCBenchResult measures the portal call/reply round trip: a client PD
// calls a server PD on the same core, the server answers with the merged
// reply+receive. Every field is deterministic simulated time; the cycles
// per round trip are the acceptance metric for the IPC fast path.
type IPCBenchResult struct {
	Rounds         int
	SimCyclesPerRT float64
	SimUsPerRT     float64
	// FastPathShare is the fraction of calls that took the same-core
	// synchronous handoff (expected ~1.0 in this topology).
	FastPathShare float64
}

// pingGuest adapts a closure to nova.Guest for the IPC benchmark PDs.
type pingGuest struct {
	name string
	run  func(env *nova.Env)
}

func (g *pingGuest) Name() string           { return g.name }
func (g *pingGuest) RunSlice(env *nova.Env) { g.run(env) }

// MeasureIPCPortal runs the same-core portal call/reply ping-pong for
// the given number of rounds and reports the round-trip cost.
func MeasureIPCPortal(rounds int) IPCBenchResult {
	if rounds < 1 {
		rounds = 1
	}
	k := nova.NewKernel()
	defer k.Shutdown()
	server := k.CreatePD(nova.PDConfig{
		Name: "ipc-server", Priority: nova.PrioGuest,
		Guest: &pingGuest{"ipc-server", func(env *nova.Env) {
			word := env.Hypercall(abi.HcPortalRecv, abi.RecvBlock)
			for {
				word = env.Hypercall(abi.HcPortalRecv, abi.RecvBlock|abi.RecvReply, (word&0xFF_FFFF)+1)
			}
		}},
	})
	var sel uint32
	done := false
	client := k.CreatePD(nova.PDConfig{
		Name: "ipc-client", Priority: nova.PrioGuest,
		Guest: &pingGuest{"ipc-client", func(env *nova.Env) {
			for i := 0; i < rounds; i++ {
				env.Hypercall(abi.HcPortalCall, sel, uint32(i)&0xFF_FFFF)
			}
			done = true
			env.Hypercall(abi.HcSuspend)
		}},
	})
	s, err := k.DelegateIPC(server, client)
	if err != nil {
		panic(fmt.Sprintf("experiments: DelegateIPC: %v", err))
	}
	sel = uint32(s)

	for !done {
		k.RunFor(simclock.FromMillis(10))
	}

	p := k.Probes.Get(measure.PhaseIPCCall)
	res := IPCBenchResult{Rounds: int(p.Count)}
	if p.Count > 0 {
		res.SimCyclesPerRT = p.MeanCycles()
		res.SimUsPerRT = p.MeanMicros()
		res.FastPathShare = float64(k.IPCFastCalls()) / float64(p.Count)
	}
	return res
}
