package apps

import "repro/internal/cpu"

// Workload is a resumable guest computation: each Step processes one unit
// (a speech frame, a compression block, ...) charging its instruction and
// memory traffic to the machine through ctx, with the real algorithm run
// on the side so the output is verifiable. Workloads are what the guest
// uC/OS-II tasks execute between hardware-task requests (§V-B: "Each VM
// is assigned with a virtualized uC/OS-II, which is executing heavy
// workload tasks, for example, GSM encoding, or ADPCM compression").
type Workload interface {
	Name() string
	// Step runs one work unit against ctx; bufVA is the VA of the
	// workload's working buffer inside the guest.
	Step(ctx *cpu.ExecContext, bufVA uint32)
	// Output returns a digest of processed bytes (tests verify progress).
	Output() uint64
}

// NewWorkloadByName builds a workload from a spec string — the factory
// declarative harnesses use to wire guest computations from
// configuration. Known names: "gsm", "adpcm", "memhog". ok is false for
// anything else (including ""), so callers can treat absence as "no
// workload".
func NewWorkloadByName(name string, seed uint32) (Workload, bool) {
	switch name {
	case "gsm":
		return NewGSMWorkload(1, seed), true
	case "adpcm":
		return NewADPCMWorkload(1, seed), true
	case "memhog":
		return NewMemoryHogWorkload(256 << 10), true
	}
	return nil, false
}

// GSMWorkload encodes synthetic speech frame by frame.
type GSMWorkload struct {
	st     GSMState
	input  []int16
	pos    int
	frames uint64
	digest uint64
	enc    []byte // scratch: one encoded frame, reused across Steps

	// Span is the charged working-set size: the input stream advances
	// circularly through [bufVA, bufVA+Span), so a running workload
	// genuinely churns the cache hierarchy (default 64 KB of live
	// buffering, a realistic footprint for a codec pipeline's buffers).
	Span uint32
}

// NewGSMWorkload prepares n samples of synthetic speech.
func NewGSMWorkload(seconds int, seed uint32) *GSMWorkload {
	return &GSMWorkload{input: SyntheticSpeech(seconds*8000, seed), Span: 64 << 10}
}

// Name implements Workload.
func (w *GSMWorkload) Name() string { return "gsm-encode" }

// Step implements Workload: one 160-sample frame. The charged traffic
// mirrors the algorithm: streaming reads of the frame, MAC-heavy loops
// (autocorrelation ~9×160, Schur 8², filtering 8×160), table writes.
func (w *GSMWorkload) Step(ctx *cpu.ExecContext, bufVA uint32) {
	if w.pos+GSMFrameSamples > len(w.input) {
		w.pos = 0
	}
	frame := w.input[w.pos : w.pos+GSMFrameSamples]
	w.pos += GSMFrameSamples

	w.enc = AppendGSMFrame(&w.st, frame, w.enc[:0])
	for _, b := range w.enc {
		w.digest = w.digest*131 + uint64(b)
	}
	w.frames++

	// Charge: read the frame (int16 stream) at its position in the
	// circular input buffer, ~5.5k instructions of MACs, write the
	// encoded frame to the moving output cursor. The charged cursor runs
	// on the frame counter so it sweeps the whole Span even though the
	// synthetic source signal is shorter.
	inOff := uint32(w.frames*GSMFrameSamples*2) % w.Span
	ctx.StreamRange(bufVA+inOff, GSMFrameSamples*2, 8, false)
	ctx.Exec(1600) // preprocess + autocorrelation
	ctx.Exec(900)  // Schur + LAR
	ctx.Exec(2200) // short-term filtering
	ctx.Exec(800)  // RPE selection + packing
	outOff := uint32(w.frames*GSMEncodedBytes) % (w.Span / 4)
	ctx.StreamRange(bufVA+w.Span+outOff, GSMEncodedBytes, 8, true)
}

// Output implements Workload.
func (w *GSMWorkload) Output() uint64 { return w.digest }

// Frames returns the number of encoded frames.
func (w *GSMWorkload) Frames() uint64 { return w.frames }

// ADPCMWorkload compresses synthetic audio in 1 KB blocks.
type ADPCMWorkload struct {
	st     ADPCMState
	input  []int16
	pos    int
	blocks uint64
	digest uint64
	enc    []byte // scratch: one encoded block, reused across Steps

	// Span is the charged circular working-set size (default 64 KB).
	Span uint32
}

// ADPCMBlockSamples is the per-step block size.
const ADPCMBlockSamples = 512

// NewADPCMWorkload prepares n seconds of synthetic audio.
func NewADPCMWorkload(seconds int, seed uint32) *ADPCMWorkload {
	return &ADPCMWorkload{input: SyntheticSpeech(seconds*8000, seed^0xA5A5), Span: 64 << 10}
}

// Name implements Workload.
func (w *ADPCMWorkload) Name() string { return "adpcm-compress" }

// Step implements Workload: one 512-sample block.
func (w *ADPCMWorkload) Step(ctx *cpu.ExecContext, bufVA uint32) {
	if w.pos+ADPCMBlockSamples > len(w.input) {
		w.pos = 0
	}
	block := w.input[w.pos : w.pos+ADPCMBlockSamples]
	w.pos += ADPCMBlockSamples

	w.enc = AppendADPCM(&w.st, block, w.enc[:0])
	for _, b := range w.enc {
		w.digest = w.digest*131 + uint64(b)
	}
	w.blocks++

	// ~8 instructions per sample + table lookups; stream in PCM at the
	// moving input cursor, out codes at the moving output cursor.
	inOff := uint32(w.blocks*ADPCMBlockSamples*2) % w.Span
	ctx.StreamRange(bufVA+inOff, ADPCMBlockSamples*2, 8, false)
	ctx.Exec(ADPCMBlockSamples * 8)
	outOff := uint32(w.blocks*ADPCMBlockSamples/2) % (w.Span / 4)
	ctx.StreamRange(bufVA+w.Span+outOff, ADPCMBlockSamples/2, 8, true)
}

// Output implements Workload.
func (w *ADPCMWorkload) Output() uint64 { return w.digest }

// Blocks returns processed block count.
func (w *ADPCMWorkload) Blocks() uint64 { return w.blocks }

// MemoryHogWorkload streams a large buffer to pressure the cache
// hierarchy — the scenario suite's cache-hostile guests ("memhog").
type MemoryHogWorkload struct {
	size   uint32
	offset uint32
	passes uint64
}

// NewMemoryHogWorkload streams size bytes per pass.
func NewMemoryHogWorkload(size uint32) *MemoryHogWorkload {
	return &MemoryHogWorkload{size: size}
}

// Name implements Workload.
func (w *MemoryHogWorkload) Name() string { return "memory-hog" }

// Step implements Workload: one 8 KB pass per call, 64-byte stride.
func (w *MemoryHogWorkload) Step(ctx *cpu.ExecContext, bufVA uint32) {
	chunk := uint32(8 << 10)
	ctx.StreamRange(bufVA+w.offset, chunk, 64, w.passes%2 == 1)
	ctx.Exec(256)
	w.offset += chunk
	if w.offset >= w.size {
		w.offset = 0
		w.passes++
	}
}

// Output implements Workload.
func (w *MemoryHogWorkload) Output() uint64 { return w.passes }
