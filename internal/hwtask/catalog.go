package hwtask

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/bitstream"
	"repro/internal/physmem"
	"repro/internal/pl"
)

// Task IDs of the paper's evaluation set (§V-B, Fig. 8): an FFT family
// ranging from 256 to 8192 points and a QAM family with constellation
// sizes 4, 16 and 64.
const (
	TaskFFT256  = 1
	TaskFFT512  = 2
	TaskFFT1024 = 3
	TaskFFT2048 = 4
	TaskFFT4096 = 5
	TaskFFT8192 = 6

	TaskQAM4  = 10
	TaskQAM16 = 11
	TaskQAM64 = 12
)

// FFTTaskIDs and QAMTaskIDs enumerate the two families.
var (
	FFTTaskIDs = []uint16{TaskFFT256, TaskFFT512, TaskFFT1024, TaskFFT2048, TaskFFT4096, TaskFFT8192}
	QAMTaskIDs = []uint16{TaskQAM4, TaskQAM16, TaskQAM64}
)

// FFTPoints returns the transform size of an FFT task ID.
func FFTPoints(id uint16) int { return 256 << (id - TaskFFT256) }

// QAMOrder returns the constellation size of a QAM task ID.
func QAMOrder(id uint16) int { return 4 << (2 * (id - TaskQAM4)) }

// PaperTaskSpec describes one catalog entry before installation.
type PaperTaskSpec struct {
	ID      uint16
	Name    string
	Variant uint16
	Needs   bitstream.Resources
	BitLen  int // payload bytes; drives PCAP latency
}

// PaperTaskSet returns the evaluation catalog. FFT blocks "are quite
// large" — their resource needs exceed the small PRRs, so "only PRR1 and
// PRR2 are large enough to contain the FFT tasks"; QAM modules "have a
// small size and can be hosted in all four PRRs" (§V-B). Bitstream sizes
// grow with the FFT point count, following the size↔delay relation of the
// authors' earlier work ([17]).
func PaperTaskSet() []PaperTaskSpec {
	var specs []PaperTaskSpec
	for i, id := range FFTTaskIDs {
		specs = append(specs, PaperTaskSpec{
			ID:      id,
			Name:    fmt.Sprintf("FFT-%d", FFTPoints(id)),
			Variant: uint16(i),
			Needs:   bitstream.Resources{LUTs: 6000 + uint32(i)*400, BRAM: 16 + uint32(i)*2, DSP: 24},
			BitLen:  150<<10 + i*30<<10,
		})
	}
	for i, id := range QAMTaskIDs {
		specs = append(specs, PaperTaskSpec{
			ID:      id,
			Name:    fmt.Sprintf("QAM-%d", QAMOrder(id)),
			Variant: uint16(i),
			Needs:   bitstream.Resources{LUTs: 1200 + uint32(i)*150, BRAM: 2, DSP: 4},
			BitLen:  60<<10 + i*8<<10,
		})
	}
	return specs
}

// PaperPRRCapacities returns the four-region layout of §V-B: two large
// regions (FFT-capable) and two small ones (QAM only).
func PaperPRRCapacities() []bitstream.Resources {
	return []bitstream.Resources{
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 10000, BRAM: 32, DSP: 48},
		{LUTs: 2200, BRAM: 4, DSP: 8},
		{LUTs: 2200, BRAM: 4, DSP: 8},
	}
}

// PaperCores builds the behavioural IP-core set for the paper's tasks.
func PaperCores() map[uint16]pl.Accel {
	cores := map[uint16]pl.Accel{}
	for _, id := range FFTTaskIDs {
		cores[id] = apps.FFTCore{}
	}
	for _, id := range QAMTaskIDs {
		cores[id] = apps.QAMCore{}
	}
	return cores
}

// DefaultTaskMenu is the deterministic stand-in for T_hw's "randomly
// selects a hardware task from the hardware task set" (§V-B). All VMs
// draw from the shared QAM pool (Fig. 8: hardware tasks are shared
// across guests — "one hardware task can be shared by any VM") plus a
// per-VM FFT stage. This reproduces the paper's two §V-B growth
// mechanisms with the right saturation: the probability that a request
// finds its task owned by another VM — forcing a client reclaim with the
// §IV-C consistency protocol — is roughly (N-1)/N, concave in N; and the
// number of distinct FFT configurations competing for the two large PRRs
// grows 1, 2, 3, 3, driving "more PCAP transfers" that likewise level
// off.
func DefaultTaskMenu(vm int) []uint16 {
	return []uint16{
		TaskQAM4,
		TaskQAM16,
		TaskQAM64,
		FFTTaskIDs[vm%3], // per-VM FFT stage
	}
}

// TaskPicker draws hardware-task IDs from a menu: pseudo-randomly
// (xorshift32 — T_hw's selection stream) or cycling the menu in order (a
// periodic sequence the reconfiguration prefetcher can learn). Shared by
// the Table III T_hw driver and the scenario engine's churn drivers.
type TaskPicker struct {
	state      uint32
	menu       []uint16
	pos        int
	sequential bool
}

// NewMenuPicker builds a picker over an explicit menu.
func NewMenuPicker(menu []uint16, seed uint32, sequential bool) *TaskPicker {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	return &TaskPicker{state: seed, menu: menu, sequential: sequential}
}

// Next returns the next task ID in the stream.
func (p *TaskPicker) Next() uint16 {
	if p.sequential {
		id := p.menu[p.pos%len(p.menu)]
		p.pos++
		return id
	}
	p.state ^= p.state << 13
	p.state ^= p.state >> 17
	p.state ^= p.state << 5
	return p.menu[p.state%uint32(len(p.menu))]
}

// TaskParams returns the Run() parameters (input length and the
// core-specific parameter register value) for a paper-catalog task.
func TaskParams(id uint16) (length, param uint32) {
	switch {
	case id >= TaskFFT256 && id <= TaskFFT8192:
		points := uint32(FFTPoints(id))
		return points * 4, points
	default:
		return 48, uint32(QAMOrder(id))
	}
}

// InstallTaskSet encodes each spec's synthetic bitstream into the store
// region on the bus (the .bit files of §IV-B, "stored in the DDR memory"),
// registers the task in the manager's table with its PRR compatibility
// list, and returns the specs for reference.
func InstallTaskSet(m *Manager, bus *physmem.Bus, storePA physmem.Addr, capacities []bitstream.Resources, specs []PaperTaskSpec) error {
	off := uint32(0)
	for _, s := range specs {
		bs := bitstream.Synthesize(s.ID, s.Variant, s.Needs, s.BitLen)
		raw := bs.Encode()
		if err := bus.WriteBytes(storePA+physmem.Addr(off), raw); err != nil {
			return fmt.Errorf("hwtask: installing %s: %w", s.Name, err)
		}
		var prrs []int
		for r, c := range capacities {
			if s.Needs.Fits(c) {
				prrs = append(prrs, r)
			}
		}
		if len(prrs) == 0 {
			return fmt.Errorf("hwtask: task %s fits no PRR", s.Name)
		}
		m.AddTask(&TaskInfo{
			ID:              s.ID,
			Name:            s.Name,
			Variant:         s.Variant,
			BitstreamOff:    off,
			BitstreamLen:    uint32(len(raw)),
			ReconfigLatency: pl.TransferCycles(len(raw)),
			Needs:           s.Needs,
			PRRList:         prrs,
		})
		off += uint32(len(raw)+0xFFF) &^ 0xFFF // page-align entries
	}
	return nil
}
