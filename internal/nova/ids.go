// Package nova implements the Mini-NOVA microkernel — the paper's primary
// contribution: a lightweight paravirtualization microkernel for the ARM
// Cortex-A9 side of a Zynq-7000, with first-class support for dispatching
// dynamically partially reconfigured (DPR) hardware tasks to virtual
// machines.
//
// The kernel runs in each simulated core's SVC mode and owns the
// exception vector tables; guests run de-privileged in USR mode and reach
// the kernel through hypercalls (SWI), undefined-instruction traps and
// aborts, exactly as §III of the paper lays out. The four microkernel
// properties of §III — CPU virtualization (vcpu.go), memory management
// (memory.go), communication (portal IPC in hypercall.go) and scheduling
// (delegated to the pluggable internal/sched subsystem) — plus the
// virtual interrupt layer (vgic.go) are tied together by the Kernel
// object (kernel.go), which owns one CoreCtx (core.go) per simulated
// Cortex-A9 core.
//
// Since the capability-space refactor every request path runs on
// internal/capspace: kernel objects are typed (PD, portal, semaphore,
// memory region, hardware-task slot), each PD holds a capability table,
// and a hypercall number is a selector the dispatcher resolves through
// the caller's table before invoking the object's portal handler
// (portals.go). The numbers themselves live in internal/abi — the single
// source of truth shared with the guest-side stubs — and are aliased
// here so kernel code and its tests keep their historical spelling.
package nova

import "repro/internal/abi"

// Hypercall selectors (see internal/abi for the authoritative layout and
// documentation). The paper: "A total number of 25 hypercalls are
// provided to paravirtualized operating systems" (§V-B). Calls 0–24 are
// the guest-visible set; the HcMgr* portal capabilities above them exist
// only in the Hardware Task Manager's protection domain (§III-A: a PD
// "distributes them to different capability portals").
const (
	HcNull          = abi.HcNull
	HcPrint         = abi.HcPrint
	HcVMID          = abi.HcVMID
	HcYield         = abi.HcYield
	HcTimerSet      = abi.HcTimerSet
	HcTimerCancel   = abi.HcTimerCancel
	HcIRQEnable     = abi.HcIRQEnable
	HcIRQDisable    = abi.HcIRQDisable
	HcIRQEOI        = abi.HcIRQEOI
	HcCacheFlush    = abi.HcCacheFlush
	HcTLBFlush      = abi.HcTLBFlush
	HcMapPage       = abi.HcMapPage
	HcUnmapPage     = abi.HcUnmapPage
	HcRegionCreate  = abi.HcRegionCreate
	HcDACRSwitch    = abi.HcDACRSwitch
	HcHwTaskRequest = abi.HcHwTaskRequest
	HcHwTaskRelease = abi.HcHwTaskRelease
	HcHwTaskStatus  = abi.HcHwTaskStatus
	HcPortalCall    = abi.HcPortalCall
	HcPortalRecv    = abi.HcPortalRecv
	HcUARTWrite     = abi.HcUARTWrite
	HcUARTRead      = abi.HcUARTRead
	HcSDRead        = abi.HcSDRead
	HcSDWrite       = abi.HcSDWrite
	HcSuspend       = abi.HcSuspend

	// NumHypercalls is the guest-visible hypercall count (paper §V-B: 25).
	NumHypercalls = abi.NumHypercalls

	// Capability portals for the Hardware Task Manager service.
	HcMgrNextRequest = abi.HcMgrNextRequest
	HcMgrMapIface    = abi.HcMgrMapIface
	HcMgrUnmapIface  = abi.HcMgrUnmapIface
	HcMgrHwMMULoad   = abi.HcMgrHwMMULoad
	HcMgrPCAPStart   = abi.HcMgrPCAPStart
	HcMgrComplete    = abi.HcMgrComplete
	HcMgrAllocIRQ    = abi.HcMgrAllocIRQ
)

// Hypercall status codes returned in R0 (documented in internal/abi;
// every failure mode has a distinct code).
const (
	StatusOK        = abi.StatusOK
	StatusReconfig  = abi.StatusReconfig
	StatusBusy      = abi.StatusBusy
	StatusNoMsg     = abi.StatusNoMsg
	StatusInval     = abi.StatusInval  // bad arguments to a valid portal
	StatusDenied    = abi.StatusDenied // capability held, rights missing
	StatusBadSel    = abi.StatusBadSel // selector resolves no capability
	StatusRevoked   = abi.StatusRevoked
	StatusBadType   = abi.StatusBadType
	StatusThrottled = abi.StatusThrottled // QoS token bucket empty
	StatusFaulted   = abi.StatusFaulted   // reconfiguration failed / PRRs quarantined
	StatusRetry     = abi.StatusRetry     // circuit breaker open, back off
	StatusErr       = abi.StatusErr
)

// Priority levels (paper Fig. 3: idle=0, guest OSes=1, user services such
// as the bootloader and the Hardware Task Manager=2).
const (
	PrioIdle    = 0
	PrioGuest   = 1
	PrioService = 2
	// NumPriorities bounds the scheduler's priority array.
	NumPriorities = 4
)

// DefaultQuantum is the guest time slice: "Mini-NOVA provides each guest
// OS with a time slice of 33 ms" (§V-B).
const DefaultQuantumMs = 33

// SGIReschedule is the software-generated interrupt a core raises on a
// peer's GIC interface to demand a reschedule there (cross-core wake of a
// higher-priority PD — the kernel's only IPI).
const SGIReschedule = 1

// Domains used in every VM's page table (per-space numbering; the kernel
// domain is shared/global).
const (
	DomainGuestUser   = 1
	DomainGuestKernel = 2
	DomainKernel      = 15
)
