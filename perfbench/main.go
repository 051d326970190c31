// Command perfbench is the repository benchmark: it builds and runs the
// simulator on a fixed set of workloads, one simulation at a time on the
// serial engine, checks every run's Results, and prints one JSON line of
// metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports end-to-end metrics: simulator throughput, set-up
// time, heap and allocation, and the simulated machine's IPC and AMMAT.
// With --trace 1 it reports per-layer metrics: host-time shares from a CPU
// profile of an audited run, work counts read from each layer's Stats(),
// and per-call costs from isolated drivers. README.md lists the workloads
// and what each metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	wlName := flag.String("workload", "", "workload name (gems-fig14, radix-membound, mcf-sampled)")
	seed := flag.Uint64("seed", 1, "workload seed; 2 is held out for confirming claims")
	seconds := flag.Int("seconds", 10, "measured wall-clock seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled run, 0 end-to-end metrics")
	flag.Parse()

	wl, ok := workloadByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: host nproc=%d GOMAXPROCS=%d go=%s; workload %s seed %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), wl.name, *seed)

	b := newBench(wl, *seed)
	var m metrics
	if *trace == 1 {
		m = b.traced(*seconds)
	} else {
		m = b.untraced(*seconds)
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed run: %s\n", f)
	}
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(b.failures) == 0, b.attempted, len(b.failures), m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}
