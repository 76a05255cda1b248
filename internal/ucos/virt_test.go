package ucos_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/hwtask"
	"repro/internal/nova"
	"repro/internal/scenario"
	"repro/internal/simclock"
	"repro/internal/ucos"
)

// virtSystem boots the standard single-core platform (kernel, paper
// fabric, Hardware Task Manager service) and adds n uCOS guests
// configured by setup(i, os).
func virtSystem(n int, setup func(vm int, os *ucos.OS)) (*nova.Kernel, []*ucos.Guest) {
	k := scenario.Build(scenario.Spec{}).Kernel
	var guests []*ucos.Guest
	for i := 0; i < n; i++ {
		i := i
		g := &ucos.Guest{GuestName: "ucos-vm", Setup: func(os *ucos.OS) { setup(i, os) }}
		guests = append(guests, g)
		k.CreatePD(nova.PDConfig{Name: g.GuestName, Priority: nova.PrioGuest, Guest: g})
	}
	return k, guests
}

func TestVirtUCOSBootsAndTicks(t *testing.T) {
	k, guests := virtSystem(1, func(_ int, os *ucos.OS) {
		os.TaskCreate("work", 10, func(task *ucos.Task) {
			for {
				task.Exec(300)
			}
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(20))
	if guests[0].OS == nil {
		t.Fatal("guest OS never constructed")
	}
	if guests[0].OS.Ticks < 15 {
		t.Errorf("guest saw %d ticks in 20ms at 1ms period, want ~19", guests[0].OS.Ticks)
	}
}

// TestVirtShutdownTerminatesTasks stops the hypervisor while every VM's
// tasks are parked mid-Delay or inside a hypercall: the nested task
// coroutines must unwind with their PDs.
func TestVirtShutdownTerminatesTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	k, _ := virtSystem(3, func(_ int, os *ucos.OS) {
		for prio := 10; prio < 13; prio++ {
			os.TaskCreate("loop", prio, func(task *ucos.Task) {
				for {
					task.Exec(200)
					task.Delay(1)
				}
			})
		}
	})
	k.RunFor(simclock.FromMillis(10))
	k.Shutdown()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before NewKernel, %d after Shutdown", before, after)
	}
}

func TestVirtUCOSPrintSupervised(t *testing.T) {
	k, _ := virtSystem(1, func(_ int, os *ucos.OS) {
		os.TaskCreate("hello", 10, func(task *ucos.Task) {
			task.Print("hello-virt")
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(5))
	if !strings.Contains(k.ConsoleString(), "hello-virt") {
		t.Errorf("console = %q", k.ConsoleString())
	}
}

func TestVirtHwTaskEndToEnd(t *testing.T) {
	var status uint32 = 999
	ran := false
	k, _ := virtSystem(1, func(_ int, os *ucos.OS) {
		os.TaskCreate("hw", 10, func(task *ucos.Task) {
			if _, ok := task.OS.M.SetupDataSection(64 << 10); !ok {
				t.Error("data section setup failed")
				return
			}
			h, st := task.AcquireHw(hwtask.TaskQAM16)
			status = st
			if h == nil {
				return
			}
			ran = h.Run(task, 0x100, 0x800, 64, 16, 100)
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(50))
	if status != abi.StatusReconfig {
		t.Fatalf("acquire status = %d, want Reconfig (cold PRR)", status)
	}
	if !ran {
		t.Fatal("hardware task did not complete under virtualization")
	}
	// Table III probes must have samples now.
	for _, ph := range []string{"mgr_entry", "mgr_exit", "mgr_exec", "plirq_entry"} {
		if k.Probes.Get(ph).Count == 0 {
			t.Errorf("probe %s has no samples", ph)
		}
	}
}

func TestVirtTwoVMsShareHardwareTask(t *testing.T) {
	// Both VMs use the same QAM task; the manager must hand the region
	// back and forth with the consistency protocol of §IV-C.
	results := make([]bool, 2)
	k, _ := virtSystem(2, func(vm int, os *ucos.OS) {
		os.TaskCreate("hw", 10, func(task *ucos.Task) {
			task.OS.M.SetupDataSection(64 << 10)
			// Asymmetric backoff: two clients hammering the same task can
			// reclaim it from each other between acquire and use (the
			// §IV-C consistency flag catches it); backing off differently
			// guarantees progress.
			for try := 0; try < 60; try++ {
				h, st := task.AcquireHw(hwtask.TaskQAM4)
				if h == nil {
					if st == abi.StatusBusy {
						task.Delay(uint32(2 + vm))
						continue
					}
					return
				}
				if h.Run(task, 0x100, 0x800, 32, 4, 200) {
					results[vm] = true
					task.ReleaseHw(h)
					return
				}
				task.ReleaseHw(h)
				task.Delay(uint32(2 + 3*vm + try%3))
			}
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(1000))
	if !results[0] || !results[1] {
		t.Errorf("hardware task completion per VM = %v, want both true", results)
	}
	if k.Fabric.HwMMU.Violations != 0 {
		t.Errorf("hwMMU violations = %d, want 0", k.Fabric.HwMMU.Violations)
	}
}

func TestVirtIsolationHwTaskDMAConfined(t *testing.T) {
	// A guest programming its task to DMA outside its data section must
	// get a DMA error, not a breach (§IV-C second principle).
	var runOK bool
	var errSeen bool
	k, _ := virtSystem(1, func(_ int, os *ucos.OS) {
		os.TaskCreate("evil", 10, func(task *ucos.Task) {
			task.OS.M.SetupDataSection(16 << 10)
			h, _ := task.AcquireHw(hwtask.TaskQAM4)
			if h == nil {
				return
			}
			// dst offset far outside the 16 KB window
			runOK = h.Run(task, 0x100, 1<<20, 64, 4, 200)
			errSeen = !runOK
		})
	})
	defer k.Shutdown()
	k.RunFor(simclock.FromMillis(100))
	if runOK {
		t.Error("DMA escape reported success")
	}
	if !errSeen {
		t.Error("no error observed")
	}
	if k.Fabric.HwMMU.Violations == 0 {
		t.Error("hwMMU did not record the violation")
	}
}
