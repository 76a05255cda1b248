// Command perfbench is the repository's benchmark. It runs one scenario
// workload (workloads.go) repeatedly for a fixed host-time budget, checks
// every run's state checksum against an oracle, and prints end-to-end
// metrics, or with --trace 1 per-layer metrics from spans and a CPU
// profile. Its last output line is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload exit-storm --seed 7 --seconds 20 --trace 0
//
// NOTES.md explains the workloads, the metrics and what each should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// endToEnd and perLayer are the metrics of the JSON result line, in the
// order BENCHMARK.json declares them.
var endToEnd = []string{"setup_s", "run_s", "sim_mips", "alloc_mb", "peak_rss_mb"}

var perLayer = []string{
	"host.apps_pct", "host.memmodel_pct", "host.kernel_pct", "host.epoch_pct", "host.handoff_pct",
	"host.reconfig_pct", "host.fork_pct", "host.gc_pct", "host.harness_pct", "host.other_pct",
	"host.memmodel_ns_per_access", "host.kernel_ns_per_exit", "host.epoch_ns_per_epoch",
	"host.handoff_ns_per_switch", "host.fork_us_per_clone",
	"cpu.instructions", "cpu.exceptions", "cache.l1_accesses", "cache.l1d_miss_rate",
	"cache.l2_miss_rate", "tlb.miss_rate",
	"nova.hypercalls", "nova.world_switches", "nova.virq_injected", "nova.virq_relatched",
	"nova.epochs", "capspace.lookups", "simtime.busy_pct", "simtime.switch_pct", "simtime.hypercall_p50_us",
	"reconfig.completions", "reconfig.cache_hit_ratio", "reconfig.prefetch_useful_ratio",
	"reconfig.queue_max_depth", "hwtask.useful_ratio",
	"pool.built", "pool.reaped", "pool.hit_ratio", "cow.faults", "cow.copy_rate",
	"span.build_s", "span.run_s", "trace_overhead_pct",
}

// traceDir receives the traced run's spans and CPU profile, relative to
// the working directory (the repository root).
const traceDir = ".bench_build/perfbench/trace"

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// runMs overrides the workload's simulated horizon (0 = keep it); the
	// smoke test shortens runs with it.
	runMs float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: codec-stream, exit-storm or fork-fleet")
		seed    = flag.Uint64("seed", defaultSeed, "benchmark seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "host seconds of timed runs")
		traced  = flag.Int("trace", 0, "1 = per-layer run: spans, CPU profile and trace overhead")
		shards  = flag.Int("shard-dump", 0, "run the workload once with --seed as its scenario seed on this many shards, print the checksum and state dump, and exit (the shard-equivalence check's child process)")
	)
	flag.Parse()
	if *shards > 0 {
		os.Exit(shardDump(*name, uint32(*seed), *shards))
	}
	res, err := bench(config{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// rep is one Build+Run of the workload at one scenario seed.
type rep struct {
	setup, run time.Duration
	allocMB    float64
	res        scenario.Result
	c          counts
}

type repOpts struct {
	scalar bool     // reference per-access memory path (the oracle)
	noKeep bool     // leave probe sample retention off
	spans  *spanLog // nil = untraced
	shards int
}

// runRep builds and runs one system. A panic anywhere in the program
// comes back as an error.
func runRep(spec scenario.Spec, o repOpts) (r rep, err error) {
	spec.Shards = o.shards
	var sys *scenario.System
	defer func() {
		if p := recover(); p != nil {
			first, _, _ := strings.Cut(fmt.Sprint(p), "\n")
			err = fmt.Errorf("panic: %s", first)
			if sys != nil {
				sys.Kernel.Shutdown()
			}
		}
	}()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := o.spans.begin(fmt.Sprintf("rep seed=%d", spec.Seed), -1)

	sp := o.spans.begin("build", root)
	t0 := time.Now()
	sys = scenario.Build(spec)
	t1 := time.Now()
	o.spans.end(sp)

	if !o.noKeep {
		keepProbes(sys.Kernel)
	}
	for _, c := range sys.Kernel.Cores {
		c.CPU.ScalarMemPath = o.scalar
	}

	sp = o.spans.begin("run", root)
	t2 := time.Now()
	res := sys.Run()
	t3 := time.Now()
	o.spans.end(sp)

	runtime.ReadMemStats(&m1)
	sp = o.spans.begin("read", root)
	r = rep{
		setup: t1.Sub(t0), run: t3.Sub(t2),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		res:     res, c: read(sys, res),
	}
	o.spans.end(sp)
	o.spans.end(root)
	return r, nil
}

// subSeeds derives a run's scenario seeds from its benchmark seed. A run
// spreads its repetitions over several scenario seeds so that its figures
// describe the workload rather than one seed's trajectory.
func subSeeds(seed uint64, n int) []uint32 {
	out := make([]uint32, n)
	for j := range out {
		x := seed*0x9E3779B97F4A7C15 + uint64(j+1)*0xBF58476D1CE4E5B9
		x ^= x >> 31
		x *= 0x94D049BB133111EB
		x ^= x >> 29
		out[j] = uint32(x >> 32)
	}
	return out
}

// bench runs one workload as cfg asks and writes the human-readable
// report to w. The returned result is what the JSON line carries.
func bench(cfg config, w io.Writer) (result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runMs := wl.runMs
	if cfg.runMs > 0 {
		runMs = cfg.runMs
	}
	seeds := subSeeds(cfg.seed, wl.seeds)
	specs := make([]scenario.Spec, len(seeds))
	for j, s := range seeds {
		specs[j] = wl.spec(s, runMs)
	}
	var notes []string
	say := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }

	// The oracle is the sequential engine on the scalar memory path,
	// computed once per invocation and untimed. For the default seed its
	// checksums must also equal the pinned ones.
	oracles := make([]rep, len(seeds))
	drift := 0
	for j := range seeds {
		o, err := runRep(specs[j], repOpts{scalar: true})
		if err != nil {
			return result{}, fmt.Errorf("oracle run, scenario seed %d: %w", seeds[j], err)
		}
		oracles[j] = o
		if cfg.seed == defaultSeed && runMs == wl.runMs && o.res.Checksum != wl.pinned[j] {
			say("oracle FAILED: scenario seed %d checksum %016x, pinned %016x", seeds[j], o.res.Checksum, wl.pinned[j])
			drift++
		}
	}
	if drift == 0 {
		pin := ""
		if cfg.seed == defaultSeed && runMs == wl.runMs {
			pin = ", equal to the pinned checksums"
		}
		say("oracle: sequential engine, scalar memory path, %d scenario seeds, computed untimed%s", len(seeds), pin)
	}

	// A mode is one kind of timed run. It cycles through the scenario
	// seeds across all of its time slices, and at least once through all
	// of them.
	type mode struct {
		opts repOpts
		next int
		got  [][]rep // good runs per scenario seed
	}
	// step makes a mode's next run. Every run must reproduce its oracle's
	// checksum, simulated counters and kept probe samples exactly.
	failed, attempted := 0, 0
	step := func(m *mode) {
		j := m.next % len(seeds)
		m.next++
		attempted++
		r, err := runRep(specs[j], m.opts)
		switch {
		case err != nil:
			say("run %d (scenario seed %d) FAILED: %v", attempted, seeds[j], err)
		case r.res.Checksum != oracles[j].res.Checksum:
			say("run %d (scenario seed %d) FAILED: checksum %016x, oracle %016x; first difference: %s",
				attempted, seeds[j], r.res.Checksum, oracles[j].res.Checksum, firstDiff(oracles[j].res.Detail, r.res.Detail))
		case oracles[j].c.diff(&r.c) != "":
			say("run %d (scenario seed %d) FAILED: simulated counters differ from the oracle's: %s",
				attempted, seeds[j], oracles[j].c.diff(&r.c))
		default:
			// Keep the timings and counters only, so that retained runs
			// do not grow the heap the later runs are timed on.
			r.res = scenario.Result{}
			clear(r.c.samples[:])
			m.got[j] = append(m.got[j], r)
			return
		}
		failed++
	}
	runFor := func(m *mode, budget time.Duration) {
		for start := time.Now(); time.Since(start) < budget; {
			step(m)
		}
	}
	finish := func(m *mode) {
		for m.next < len(seeds) {
			step(m)
		}
	}
	plainMode := &mode{got: make([][]rep, len(seeds))}
	tracedMode := &mode{opts: repOpts{spans: newSpanLog()}, got: make([][]rep, len(seeds))}
	var profiles [][]byte
	profiled := func(f func()) error {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		f()
		pprof.StopCPUProfile()
		profiles = append(profiles, buf.Bytes())
		return nil
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// Traced and untraced slices alternate, so that a drift in host
		// speed during the run shows in both and not in the overhead.
		const alternations = 4
		for i := 0; i < alternations; i++ {
			runFor(plainMode, budget/(2*alternations))
			if err := profiled(func() { runFor(tracedMode, budget/(2*alternations)) }); err != nil {
				return result{}, err
			}
		}
		finish(plainMode)
		if err := profiled(func() { finish(tracedMode) }); err != nil {
			return result{}, err
		}
	} else {
		runFor(plainMode, budget)
		finish(plainMode)
	}
	plain, traced, spans := plainMode.got, tracedMode.got, tracedMode.opts.spans
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	peakMB := float64(ru.Maxrss) * 1024 / 1e6

	if wl.shardCheck > 0 && !cfg.trace && cfg.runMs == 0 {
		n := min(wl.shardCheck, len(seeds))
		say("%s", shardCheck(wl, seeds[:n], oracles[:n]))
	}

	// The report header follows ROADMAP item 2's reporting rules.
	fmt.Fprintf(w, "# perfbench workload %s seed %d: %d scenario seeds %v, horizon %g simulated ms each\n",
		wl.name, cfg.seed, len(seeds), seeds, runMs)
	fmt.Fprintf(w, "# host nproc %d GOMAXPROCS %d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# runs attempted %d (untraced %d good, traced %d good), failed %d; sequential engine (Shards 0), batched memory path\n",
		attempted, total(plain), total(traced), failed)
	for _, n := range notes {
		fmt.Fprintf(w, "check %s\n", n)
	}

	out := result{Correct: failed == 0 && drift == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	if total(plain) == 0 || (cfg.trace && total(traced) == 0) {
		out.Correct = false
		return out, nil
	}
	var pooled counts
	for i := range oracles {
		pooled.add(&oracles[i].c)
	}
	emit := func(m metric, names []string) {
		fmt.Fprintf(w, "metric %-30s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
		for _, n := range names {
			if n == m.name {
				out.Metrics[m.name] = value{m.value, m.unit}
			}
		}
	}
	var e2e []string
	if !cfg.trace {
		e2e = endToEnd
	}
	for _, m := range hostMetrics(plain, peakMB) {
		emit(m, e2e)
	}
	emit(metric{name: "failed_runs", unit: "ratio", value: float64(failed) / float64(attempted),
		note: fmt.Sprintf("%d of %d", failed, attempted)}, nil)
	for _, m := range pooled.simMetrics() {
		emit(m, nil)
	}
	if !cfg.trace {
		return out, nil
	}

	layerNs := map[string]int64{}
	for _, p := range profiles {
		ns, err := layerTimes(p)
		if err != nil {
			return result{}, err
		}
		for l, v := range ns {
			layerNs[l] += v
		}
	}
	if err := writeTrace(cfg, spans, profiles); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	}
	var ops counts // simulated work of every traced run, the per-operation denominators
	for _, rs := range traced {
		for i := range rs {
			ops.add(&rs[i].c)
		}
	}
	for _, m := range layerMetrics(layerNs, &ops, total(traced)) {
		emit(m, perLayer)
	}
	for _, m := range pooled.layerCounts() {
		emit(m, perLayer)
	}
	build := seedMean("span.build_s", "s", traced, func(r rep) float64 { return r.setup.Seconds() })
	run := seedMean("span.run_s", "s", traced, func(r rep) float64 { return r.run.Seconds() })
	base := seedMean("run_s", "s", plain, func(r rep) float64 { return r.run.Seconds() })
	emit(build, perLayer)
	emit(run, perLayer)
	emit(metric{name: "trace_overhead_pct", unit: "%", value: 100 * (run.value/base.value - 1),
		note: fmt.Sprintf("traced span.run_s against untraced run_s %.6g s", base.value)}, perLayer)
	return out, nil
}

func total(reps [][]rep) int {
	n := 0
	for _, rs := range reps {
		n += len(rs)
	}
	return n
}

// hostMetrics summarizes the untraced runs' host costs.
func hostMetrics(reps [][]rep, peakMB float64) []metric {
	return []metric{
		seedMean("setup_s", "s", reps, func(r rep) float64 { return r.setup.Seconds() }),
		seedMean("run_s", "s", reps, func(r rep) float64 { return r.run.Seconds() }),
		seedMean("sim_mips", "instr/us", reps, func(r rep) float64 {
			return float64(r.c.instructions) / float64(r.run.Microseconds())
		}),
		seedMean("alloc_mb", "MB", reps, func(r rep) float64 { return r.allocMB }),
		{name: "peak_rss_mb", unit: "MB", value: peakMB, note: "process peak resident set"},
	}
}

// seedMean is the mean over scenario seeds of each seed's median of f:
// the median filters host noise, the mean weighs every seed alike.
func seedMean(name, unit string, reps [][]rep, f func(rep) float64) metric {
	var meds []float64
	n := 0
	for _, rs := range reps {
		if len(rs) == 0 {
			continue
		}
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		meds = append(meds, quartiles(xs)[1])
		n += len(rs)
	}
	sum := 0.0
	for _, m := range meds {
		sum += m
	}
	q := quartiles(meds)
	return metric{name: name, unit: unit, value: sum / float64(max(len(meds), 1)),
		note: fmt.Sprintf("mean of %d seed medians, n=%d runs; seed medians q1 %.4g median %.4g q3 %.4g",
			len(meds), n, q[0], q[1], q[2])}
}

// layerMetrics turns the profile's per-layer CPU time into shares and
// per-operation costs. A per-operation cost divides by the operations of
// every traced run and reads 0 (n/a) where the workload has none.
func layerMetrics(ns map[string]int64, ops *counts, runs int) []metric {
	var sum int64
	for _, v := range ns {
		sum += v
	}
	var out []metric
	for _, l := range layers {
		m := metric{name: "host." + l + "_pct", unit: "%",
			note: fmt.Sprintf("%.0f of %.0f CPU ms, %d traced runs", float64(ns[l])/1e6, float64(sum)/1e6, runs)}
		if sum > 0 {
			m.value = 100 * float64(ns[l]) / float64(sum)
		}
		out = append(out, m)
	}
	per := func(name, unit, layer string, n uint64, what string, scale float64) metric {
		m := metric{name: name, unit: unit, note: fmt.Sprintf("over %d %s", n, what)}
		if n > 0 {
			m.value = float64(ns[layer]) / scale / float64(n)
		} else {
			m.note += ", n/a"
		}
		return m
	}
	return append(out,
		per("host.memmodel_ns_per_access", "ns/access", "memmodel", ops.l1Accesses, "L1 accesses", 1),
		per("host.kernel_ns_per_exit", "ns/exit", "kernel", ops.exceptions, "exceptions", 1),
		per("host.epoch_ns_per_epoch", "ns/epoch", "epoch", ops.epochs, "epochs", 1),
		per("host.handoff_ns_per_switch", "ns/switch", "handoff", ops.switches, "world switches", 1),
		per("host.fork_us_per_clone", "us/clone", "fork", ops.built, "clones built", 1e3),
	)
}

// quartiles returns q1, median and q3 by the exclusive method of
// Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// firstDiff returns the first line where two state dumps differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var a, b string
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: oracle %q, got %q", i+1, a, b)
		}
	}
	return "dumps identical"
}

// shardCheck runs the workload on 2 shards of the epoch-barrier engine
// for each given scenario seed until one diverges from its oracle. Each
// run is a child process, so a crash or hang there cannot take the
// benchmark down.
func shardCheck(wl workload, seeds []uint32, oracles []rep) string {
	name := "shard2_equivalence " + wl.name
	self, err := os.Executable()
	if err != nil {
		return fmt.Sprintf("%s: ERROR %v", name, err)
	}
	for j, s := range seeds {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		dump, err := exec.CommandContext(ctx, self, "--workload", wl.name, "--seed", fmt.Sprint(s), "--shard-dump", "2").Output()
		cancel()
		if err != nil {
			return fmt.Sprintf("%s: ERROR 2-shard run, scenario seed %d: %v", name, s, err)
		}
		got, detail, _ := strings.Cut(string(dump), "\n")
		if want := fmt.Sprintf("%016x", oracles[j].res.Checksum); got != want {
			return fmt.Sprintf("%s: MISMATCH at scenario seed %d: checksum %s, oracle %s; first difference: %s",
				name, s, got, want, firstDiff(oracles[j].res.Detail, detail))
		}
	}
	return fmt.Sprintf("%s: MATCH on all %d scenario seeds checked", name, len(seeds))
}

// shardDump is the child side of shardCheck: one run of the workload at
// the given scenario seed on the given shard count, printing the
// checksum and then the state dump.
func shardDump(name string, seed uint32, shards int) int {
	wl, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	r, err := runRep(wl.spec(seed, wl.runMs), repOpts{shards: shards})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%016x\n%s", r.res.Checksum, r.res.Detail)
	return 0
}

// writeTrace stores the traced runs' spans (JSON) and CPU profiles, one
// per traced slice (`go tool pprof` merges them), under traceDir.
func writeTrace(cfg config, spans *spanLog, profiles [][]byte) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	js, err := json.Marshal(spans.spans)
	if err != nil {
		return err
	}
	errs := []error{os.WriteFile(base+".spans.json", js, 0o644)}
	for i, p := range profiles {
		errs = append(errs, os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", base, i), p, 0o644))
	}
	return errors.Join(errs...)
}
