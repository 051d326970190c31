package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"pageseer/internal/check"
	"pageseer/internal/sim"
)

// workload is one benchmark input: a Table III benchmark on four cores, the
// schemes built and run in every measured iteration, and the instruction
// budgets per core.
type workload struct {
	name   string
	bench  string
	timed  []sim.Scheme // timed[0] is PageSeer, the scheme ipc and ammat_cycles report
	instr  uint64
	warmup uint64
	sample uint64 // sampled-mode windows; 0 runs fully detailed
}

// The workloads each put a different layer on top of a CPU profile of Run
// (see README.md): memsim and the scheme managers on gems-fig14, memsim on
// radix-membound, the correlator and fast-forward paths on mcf-sampled.
// gems-fig14 keeps 1M measured instructions per core because shorter runs
// reverse its PageSeer-vs-MemPod ordering.
var workloads = []workload{
	{name: "gems-fig14", bench: "GemsFDTD", timed: []sim.Scheme{sim.SchemePageSeer, sim.SchemePoM, sim.SchemeMemPod},
		instr: 1_000_000, warmup: 500_000},
	{name: "radix-membound", bench: "radix", timed: []sim.Scheme{sim.SchemePageSeer},
		instr: 500_000, warmup: 250_000},
	{name: "mcf-sampled", bench: "mcf", timed: []sim.Scheme{sim.SchemePageSeer},
		instr: 2_000_000, warmup: 1_000_000, sample: 16},
}

const (
	cores = 4
	// sampleWindow and sampleWarmup are the detailed instructions per core
	// measured and discarded in each sampled window.
	sampleWindow = 1000
	sampleWarmup = 1000
	// inputs is how many simulation seeds one benchmark seed stands for.
	// Simulator speed differs by up to 20% between simulation seeds of one
	// workload, so every metric is taken over several of them and a
	// benchmark seed's figures vary less from the next seed's.
	inputs = 4
	// setupBuilds is how many extra timed builds of each input precede the
	// measured passes, so setup_s is a median over many builds.
	setupBuilds = 4
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config(s sim.Scheme, seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = s
	cfg.Workload = w.bench
	cfg.MaxCores = cores
	cfg.Seed = seed
	cfg.InstrPerCore = w.instr
	cfg.Warmup = w.warmup
	if w.sample > 0 {
		cfg.Sample, cfg.SampleWindow, cfg.SampleWarmup = w.sample, sampleWindow, sampleWarmup
	}
	return cfg
}

// instructions is one run's instruction budget, warm-up and fast-forward
// included; cores retire it to within one burst.
func (w workload) instructions() uint64 { return cores * (w.instr + w.warmup) }

// bench runs one workload at one benchmark seed and keeps the failure
// accounting.
type bench struct {
	wl        workload
	seed      uint64
	attempted int
	failures  []string
	ref       map[runKey]sim.Results // first Results per run, Watchdog cleared
	// counts, when non-nil, receives the per-layer work counts of the first
	// run of each scheme on input 0.
	counts metrics
}

// runKey names one deterministic simulation: a scheme on one input.
type runKey struct {
	scheme sim.Scheme
	input  int
}

func newBench(wl workload, seed uint64) *bench {
	return &bench{wl: wl, seed: seed, ref: map[runKey]sim.Results{}}
}

// simSeed is the simulation seed of input i. Benchmark seeds map to disjoint
// sets, so seed 2 shares no input with seed 1.
func (b *bench) simSeed(input int) uint64 { return b.seed*inputs + uint64(input) }

func (b *bench) fail(k runKey, format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf("%s/%s seed %d input %d: %s",
		b.wl.name, k.scheme, b.seed, k.input, fmt.Sprintf(format, args...)))
}

// run is one built and executed machine.
type run struct {
	build, exec time.Duration
	heap        int64  // live heap the built machine holds, bytes
	alloc       uint64 // bytes allocated during Run
	fired       uint64 // engine events over the whole Run
}

// runOnce builds and runs one simulation. With audit set, Config.Audit arms
// the watchdog and invariant audit; with prof non-nil, Run executes under a
// CPU profile folded into prof. A run fails on a Build or Run error, on
// Results that are not plausible, or on Results that differ from the first
// run of the same simulation.
func (b *bench) runOnce(k runKey, audit bool, prof *fold) (run, bool) {
	cfg := b.wl.config(k.scheme, b.simSeed(k.input))
	cfg.Audit = audit
	b.attempted++
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	t0 := time.Now()
	sys, err := sim.Build(cfg)
	build := time.Since(t0)
	if err != nil {
		b.fail(k, "build: %v", err)
		return run{}, false
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r := run{build: build, heap: int64(ms.HeapAlloc) - int64(heap0)}
	alloc0 := ms.TotalAlloc
	var pbuf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&pbuf); err != nil {
			b.fail(k, "cpu profile: %v", err)
			return run{}, false
		}
	}
	t1 := time.Now()
	res, err := sys.Run()
	r.exec = time.Since(t1)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.add(pbuf.Bytes()); err != nil {
			b.fail(k, "fold cpu profile: %v", err)
			return run{}, false
		}
	}
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - alloc0
	r.fired = sys.Sim.Fired()
	if err != nil {
		b.fail(k, "run: %v", err)
		return run{}, false
	}
	if msg := b.implausible(res); msg != "" {
		b.fail(k, "%s", msg)
		return run{}, false
	}
	norm := res
	norm.Watchdog = check.WatchdogStats{}
	if first, ok := b.ref[k]; !ok {
		b.ref[k] = norm
		if b.counts != nil && k.input == 0 {
			addCounts(b.counts, k.scheme, sys, res)
		}
	} else if !reflect.DeepEqual(first, norm) {
		b.fail(k, "Results differ from the first run of this simulation")
		return run{}, false
	}
	return r, true
}

// implausible names what is wrong with Results no correct run produces.
func (b *bench) implausible(r sim.Results) string {
	switch {
	case r.Cores != cores:
		return fmt.Sprintf("%d cores, want %d", r.Cores, cores)
	case !(r.IPC > 0) || math.IsInf(r.IPC, 0):
		return fmt.Sprintf("IPC %v", r.IPC)
	case !(r.AMMAT > 0) || math.IsInf(r.AMMAT, 0):
		return fmt.Sprintf("AMMAT %v", r.AMMAT)
	case b.wl.sample == 0 && r.Instructions < cores*b.wl.instr:
		return fmt.Sprintf("%d measured instructions, want at least %d", r.Instructions, cores*b.wl.instr)
	}
	return ""
}

// samples are the measurements of a stretch of iterations, each iteration
// running the workload's timed schemes on one input.
type samples struct {
	kips       []float64 // per run
	builds     []float64 // seconds per Build
	exec       []float64 // seconds of Run per iteration
	nsPerEvent []float64 // per iteration
	// heap and alloc are MiB per iteration, by input.
	heap, alloc [inputs][]float64
}

// measure runs iterations, cycling through the inputs, for about d: it
// starts another only if that should end before d has passed, and runs at
// least min. Iterations with a failed run are counted by runOnce and left
// out.
func (b *bench) measure(d time.Duration, min int, audit bool, prof *fold) samples {
	var out samples
	start := time.Now()
	for i := 0; i < min || time.Since(start)*time.Duration(i+1)/time.Duration(i) <= d; i++ {
		var exec time.Duration
		var heap int64
		var alloc, fired uint64
		ok := true
		for _, s := range b.wl.timed {
			var r run
			if r, ok = b.runOnce(runKey{s, i % inputs}, audit, prof); !ok {
				break
			}
			out.kips = append(out.kips, float64(b.wl.instructions())/r.exec.Seconds()/1e3)
			out.builds = append(out.builds, r.build.Seconds())
			exec += r.exec
			heap += r.heap
			alloc += r.alloc
			fired += r.fired
		}
		if ok {
			out.exec = append(out.exec, exec.Seconds())
			out.nsPerEvent = append(out.nsPerEvent, float64(exec.Nanoseconds())/float64(fired))
			out.heap[i%inputs] = append(out.heap[i%inputs], float64(heap)/(1<<20))
			out.alloc[i%inputs] = append(out.alloc[i%inputs], float64(alloc)/(1<<20))
		}
	}
	return out
}

// comparisons runs, once per input, the Figure 14 baselines the workload
// does not time, so every workload reports PageSeer's IPC against PoM and
// MemPod.
func (b *bench) comparisons() {
	for _, s := range []sim.Scheme{sim.SchemePoM, sim.SchemeMemPod} {
		if slices.Contains(b.wl.timed, s) {
			continue
		}
		for i := 0; i < inputs; i++ {
			b.runOnce(runKey{s, i}, false, nil)
		}
	}
}

// meanOver averages f over the Results of scheme on every input.
func (b *bench) meanOver(scheme sim.Scheme, f func(sim.Results) float64) float64 {
	var t float64
	for i := 0; i < inputs; i++ {
		t += f(b.ref[runKey{scheme, i}])
	}
	return t / inputs
}

// untraced measures the end-to-end metrics. It runs every input at least
// once, so the deterministic metrics cover all four, and reports the median
// over runs, since host speed drifts over tens of seconds on a shared
// machine.
func (b *bench) untraced(seconds int) metrics {
	var builds []float64
	for n := 0; n < setupBuilds; n++ {
		for i := 0; i < inputs; i++ {
			for _, s := range b.wl.timed {
				t0 := time.Now()
				_, err := sim.Build(b.wl.config(s, b.simSeed(i)))
				builds = append(builds, time.Since(t0).Seconds())
				if err != nil {
					b.attempted++
					b.fail(runKey{s, i}, "build: %v", err)
					return metrics{}
				}
			}
		}
	}
	b.comparisons()
	got := b.measure(time.Duration(seconds)*time.Second, inputs, false, nil)
	if len(b.failures) > 0 || len(got.exec) < inputs {
		return metrics{}
	}
	k := got.kips
	fmt.Fprintf(os.Stderr, "perfbench: %d timed runs, sim_kips min %.0f median %.0f max %.0f\n",
		len(k), slices.Min(k), median(k), slices.Max(k))
	ipc := func(r sim.Results) float64 { return r.IPC }
	psIPC := b.meanOver(sim.SchemePageSeer, ipc)
	m := metrics{}
	m.set("sim_kips", median(k), "kinstr/s")
	m.set("setup_s", median(append(builds, got.builds...)), "s")
	m.set("heap_mb", meanOfMedians(got.heap), "MiB")
	m.set("alloc_mb", meanOfMedians(got.alloc), "MiB")
	m.set("ipc", psIPC, "instr/cycle")
	m.set("ammat_cycles", b.meanOver(sim.SchemePageSeer, func(r sim.Results) float64 { return r.AMMAT }), "cycles")
	m.set("ipc_vs_pom", psIPC/b.meanOver(sim.SchemePoM, ipc), "ratio")
	m.set("ipc_vs_mempod", psIPC/b.meanOver(sim.SchemeMemPod, ipc), "ratio")
	return m
}

// traced measures the per-layer metrics: half the time in plain iterations
// (the trace_overhead base and the engine's cost per event), half in audited
// iterations whose Runs are CPU-profiled, then the isolated drivers. Work
// counts come from the first run of each scheme on input 0.
func (b *bench) traced(seconds int) metrics {
	b.counts = metrics{}
	b.comparisons()
	half := time.Duration(seconds) * time.Second / 2
	plain := b.measure(half, 1, false, nil)
	folded := newFold()
	traced := b.measure(half, 1, true, folded)
	if len(b.failures) > 0 || len(plain.exec) == 0 || len(traced.exec) == 0 {
		return metrics{}
	}
	m := b.counts
	m.set("trace_overhead", median(traced.exec)/median(plain.exec), "ratio")
	m.set("engine.ns_per_event", median(plain.nsPerEvent), "ns")
	folded.report(m)
	runDrivers(m, b.seed)
	return m
}

// median returns the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOfMedians is the mean over inputs of each input's median.
func meanOfMedians(byInput [inputs][]float64) float64 {
	var t float64
	for _, xs := range byInput {
		t += median(xs)
	}
	return t / inputs
}
