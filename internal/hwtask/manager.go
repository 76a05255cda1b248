// Package hwtask implements the Hardware Task Manager — the Mini-NOVA user
// service that owns reconfiguration and allocation of DPR hardware tasks
// (paper §IV). It keeps the two tables of Fig. 7:
//
//   - the hardware task table, indexed by unique task ID, holding each
//     task's bitstream location/size, reconfiguration latency and the list
//     of PRRs able to host it (§IV-B);
//   - the PRR table, holding each region's current client, loaded task and
//     execution state.
//
// The allocation routine follows the six stages of Fig. 7. The same
// decision core runs in two harnesses: as a Mini-NOVA protection domain
// (Service, using capability portals for every privileged effect) and
// natively inside a non-virtualized RTOS (NativeActions — the paper's
// baseline, where "the hardware task manager service does not need to
// update the page tables since all tasks execute in a unified memory
// space").
package hwtask

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/bitstream"
	"repro/internal/cpu"
	"repro/internal/nova"
	"repro/internal/simclock"
)

// TaskInfo is one hardware-task-table entry (§IV-B: "for each task, the
// address and size of its .bit file, the reconfiguration latency and the
// list of predefined PRRs are stored").
type TaskInfo struct {
	ID      uint16
	Name    string
	Variant uint16

	// Bitstream location within the bitstream store.
	BitstreamOff uint32
	BitstreamLen uint32

	// ReconfigLatency is the expected PCAP download time (derived from
	// the bitstream size; stored for admission decisions).
	ReconfigLatency simclock.Cycles

	// Needs is the FPGA resource footprint; PRRList the compatible
	// regions, precomputed from capacities at installation.
	Needs   bitstream.Resources
	PRRList []int
}

// PRRState is one PRR-table entry.
type PRRState struct {
	Client     int    // PD/VM id currently owning the region's task; -1 none
	TaskID     int    // task configured (or being configured); -1 none
	Loading    bool   // PCAP transfer in flight
	Executions uint64 // completed dispatches through this region
}

// Reply status codes — the shared ABI's hypercall statuses, aliased so
// the decision core keeps its historical spelling without duplicating
// the values.
const (
	ReplyOK       = abi.StatusOK
	ReplyReconfig = abi.StatusReconfig
	ReplyBusy     = abi.StatusBusy
	ReplyInval    = abi.StatusInval
	// ReplyFaulted means every PRR compatible with the task is quarantined
	// (repeated configuration faults); retrying will not help until a
	// region heals or the task set changes.
	ReplyFaulted = abi.StatusFaulted
)

// Actions abstracts the privileged effects of an allocation so the same
// decision core serves the virtualized service (capability portals) and
// the native baseline (direct device programming).
type Actions interface {
	// PRRBusy reports whether the region is executing right now.
	PRRBusy(prr int) bool
	// PRRQuarantined reports whether the region has been pulled from the
	// placement pool after repeated configuration faults (the kernel's
	// reconfiguration pipeline tracks region health; the native baseline
	// has no fault plan and always answers false).
	PRRQuarantined(prr int) bool
	// Reclaim withdraws region prr from a previous client: consistency
	// save + interface demap + IRQ withdrawal (§IV-C). No-op natively.
	Reclaim(clientID, prr int)
	// MapIface makes prr's register group reachable by the client at its
	// requested VA — stage (3). No-op natively (unified space).
	MapIface(req nova.MgrRequestView, prr int) bool
	// LoadWindow points the hwMMU at the client's data section — stage (4).
	LoadWindow(req nova.MgrRequestView, prr int) bool
	// StartReconfig launches the PCAP download — stage (5). Under
	// Mini-NOVA this submits to the kernel's reconfiguration pipeline
	// (cache + request queue) and only fails on invalid arguments; the
	// native baseline programs the device directly and still fails when
	// the PCAP is busy.
	StartReconfig(req nova.MgrRequestView, t *TaskInfo, prr int) bool
	// AllocIRQ wires a PL interrupt line for the region to the client and
	// returns the GIC interrupt ID (ok=false when lines are exhausted).
	AllocIRQ(req nova.MgrRequestView, prr int) (irq int, ok bool)
}

// Reply packing lives in the shared ABI (abi.MakeReply and friends);
// these wrappers keep the package-local names the harnesses use.

// MakeReply packs status, PRR and IRQ into one reply word.
func MakeReply(status uint32, prr, irq int) uint32 { return abi.MakeReply(status, prr, irq) }

// StatusOf extracts the status byte of a reply.
func StatusOf(reply uint32) uint32 { return abi.ReplyStatus(reply) }

// PRROf extracts the granted PRR (-1 when none).
func PRROf(reply uint32) int { return abi.ReplyPRR(reply) }

// IRQOf extracts the allocated GIC interrupt id (0 when none).
func IRQOf(reply uint32) int { return abi.ReplyIRQ(reply) }

// Stats counts manager outcomes.
type Stats struct {
	Requests  uint64
	Hits      uint64 // task already configured in a usable PRR
	Reconfigs uint64 // PCAP transfer launched
	Reclaims  uint64 // region taken from another VM
	Busy      uint64 // no idle PRR
	Faulted   uint64 // every compatible PRR quarantined
	Releases  uint64
}

// Manager is the decision core plus tables.
type Manager struct {
	Tasks map[uint16]*TaskInfo
	PRRs  []PRRState

	// WorkFactor scales the modelled manager path length. The default of
	// 2.2 calibrates the end-to-end handler to the paper's ~15 µs
	// execution time on the simulated 660 MHz pipeline.
	WorkFactor float64

	// dataVA is where the manager's tables live in its own address space;
	// table scans touch this range so manager data competes for cache.
	dataVA uint32

	Stats Stats
}

// NewManager builds a manager for nPRR regions.
func NewManager(nPRR int, dataVA uint32) *Manager {
	m := &Manager{
		Tasks:      make(map[uint16]*TaskInfo),
		PRRs:       make([]PRRState, nPRR),
		WorkFactor: 2.2,
		dataVA:     dataVA,
	}
	for i := range m.PRRs {
		m.PRRs[i] = PRRState{Client: -1, TaskID: -1}
	}
	return m
}

// AddTask registers a task-table entry.
func (m *Manager) AddTask(t *TaskInfo) {
	if _, dup := m.Tasks[t.ID]; dup {
		panic(fmt.Sprintf("hwtask: duplicate task id %d", t.ID))
	}
	m.Tasks[t.ID] = t
}

// exec charges n×WorkFactor instructions on the manager's context.
func (m *Manager) exec(ctx *cpu.ExecContext, n int) {
	ctx.Exec(int(float64(n) * m.WorkFactor))
}

// touchTask streams the task-table entry for id (batched engine).
func (m *Manager) touchTask(ctx *cpu.ExecContext, id uint16) {
	ctx.StreamRange(m.dataVA+0x1000+uint32(id)*64, 64, 8, false)
}

// touchPRR streams one PRR-table entry (write when mutating).
func (m *Manager) touchPRR(ctx *cpu.ExecContext, prr int, write bool) {
	ctx.StreamRange(m.dataVA+0x2000+uint32(prr)*32, 32, 8, write)
}

// Handle runs the Fig. 7 routine for one request and returns the reply
// status. All privileged effects go through act.
func (m *Manager) Handle(ctx *cpu.ExecContext, req nova.MgrRequestView, act Actions) uint32 {
	m.Stats.Requests++
	// Stage 1-2 prologue: validate the request, look up the task table.
	m.exec(ctx, 900)

	if req.Kind == nova.HwReqRelease {
		return m.handleRelease(ctx, req, act)
	}

	t, ok := m.Tasks[req.TaskID]
	if !ok {
		return ReplyInval
	}
	m.touchTask(ctx, req.TaskID)

	// Stage 2: select a PRR. Preference order keeps reconfigurations rare:
	// (a) an idle compatible region already configured with this task,
	// (b) an idle empty region, (c) any idle compatible region (reconfig).
	// Regions currently executing are never victims; if none is idle the
	// request fails with Busy (Fig. 7 stage 2).
	// Quarantined regions (repeated config faults) are skipped in every
	// pass — the self-healing placement: a task whose favourite region
	// went bad lands on a healthy compatible one instead.
	m.exec(ctx, 300+140*len(t.PRRList))
	chosen, needReconfig := -1, false
	for _, r := range t.PRRList {
		m.touchPRR(ctx, r, false)
		if act.PRRQuarantined(r) {
			continue
		}
		if m.PRRs[r].TaskID == int(req.TaskID) && !m.PRRs[r].Loading && !act.PRRBusy(r) {
			chosen = r
			break
		}
	}
	if chosen < 0 {
		for _, r := range t.PRRList {
			if m.PRRs[r].TaskID < 0 && !act.PRRBusy(r) && !act.PRRQuarantined(r) {
				chosen, needReconfig = r, true
				break
			}
		}
	}
	if chosen < 0 {
		for _, r := range t.PRRList {
			if !act.PRRBusy(r) && !m.PRRs[r].Loading && !act.PRRQuarantined(r) {
				chosen, needReconfig = r, true
				break
			}
		}
	}
	if chosen < 0 {
		m.exec(ctx, 200)
		healthy := 0
		for _, r := range t.PRRList {
			if !act.PRRQuarantined(r) {
				healthy++
			}
		}
		if healthy == 0 {
			// Nothing compatible is left in the placement pool: Busy would
			// invite a futile retry storm, so tell the client the truth.
			m.Stats.Faulted++
			return ReplyFaulted
		}
		m.Stats.Busy++
		return ReplyBusy
	}

	// Stage 3 preamble: reclaim from the previous owner if necessary
	// (consistency save + demap, §IV-C).
	if prev := m.PRRs[chosen].Client; prev >= 0 && prev != req.ClientID {
		m.Stats.Reclaims++
		m.exec(ctx, 250)
		act.Reclaim(prev, chosen)
	}

	// Stage 3: map the hardware-task interface into the client.
	m.exec(ctx, 600)
	if !act.MapIface(req, chosen) {
		return ReplyInval
	}

	// Stage 4: load the hwMMU with the client's data section.
	m.exec(ctx, 350)
	if !act.LoadWindow(req, chosen) {
		return ReplyInval
	}

	// Interrupt plumbing (§IV-D).
	m.exec(ctx, 300)
	irq, _ := act.AllocIRQ(req, chosen)

	// Stage 5: reconfigure if the region does not hold the task yet. The
	// manager launches the PCAP transfer and does NOT wait ("to overlap
	// the significant reconfiguration overhead", §IV-E).
	status := uint32(ReplyOK)
	if needReconfig {
		m.exec(ctx, 500)
		if !act.StartReconfig(req, t, chosen) {
			// Native baseline only: PCAP busy with someone else's
			// transfer, so the caller retries. The virtualized path
			// queues the request in the reconfiguration pipeline instead.
			m.Stats.Busy++
			return ReplyBusy
		}
		m.Stats.Reconfigs++
		m.PRRs[chosen].Loading = true
		status = ReplyReconfig
	} else {
		m.Stats.Hits++
	}

	// Stage 6 epilogue: update the PRR table and reply.
	m.PRRs[chosen].Client = req.ClientID
	m.PRRs[chosen].TaskID = int(req.TaskID)
	m.PRRs[chosen].Executions++
	m.touchPRR(ctx, chosen, true)
	m.exec(ctx, 650)
	return MakeReply(status, chosen, irq)
}

func (m *Manager) handleRelease(ctx *cpu.ExecContext, req nova.MgrRequestView, act Actions) uint32 {
	m.Stats.Releases++
	for r := range m.PRRs {
		if m.PRRs[r].Client == req.ClientID && (req.TaskID == 0 || m.PRRs[r].TaskID == int(req.TaskID)) {
			m.exec(ctx, 400)
			act.Reclaim(req.ClientID, r)
			m.PRRs[r].Client = -1
			// Configuration stays loaded for reuse by the next client.
			m.touchPRR(ctx, r, true)
		}
	}
	return ReplyOK
}

// NotifyLoaded marks a PCAP completion for the region (called by the
// harness when the completion IRQ is processed, or polled).
func (m *Manager) NotifyLoaded(prr int) { m.PRRs[prr].Loading = false }

// OwnerOf returns the client owning prr (-1 when free).
func (m *Manager) OwnerOf(prr int) int { return m.PRRs[prr].Client }
