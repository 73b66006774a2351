// Command perfbench is streamcover's end-to-end benchmark. It runs one
// workload for a fixed number of seconds, checks every session's output
// against an in-process reference run, and prints one JSON result as the
// last line of standard output:
//
//	go -C perfbench run . --workload serve-long --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run times the benchmark's calls into each layer and
// reports the per-layer metrics plus an accounting of where the workload's
// CPU per edge goes. --steady N runs every workload N times with distinct
// seeds and prints each metric's median, quartiles and spread against the
// bound in BENCHMARK.json. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloads maps each workload name to its runner. The names are cited by
// later changes; do not rename them. serve-churn runs by hand and in the
// smoke test but is left out of BENCHMARK.json while the ClusterStore
// reply race (README.md, "Known defect") fails a few of its sessions.
var workloads = map[string]func(*bench) error{
	"file-batch":  runFileBatch,
	"serve-long":  runServeLong,
	"serve-churn": runServeChurn,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var steady int
	flag.StringVar(&o.workload, "workload", "", "workload: file-batch, serve-long or serve-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; 1 is the repository's standard perf instance")
	flag.IntVar(&o.seconds, "seconds", 40, "seconds of measured work (BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run every workload (or --workload) this many times with distinct seeds and report spreads")
	flag.Parse()

	if steady > 0 {
		if err := steadiness(steady, o.seconds, o.workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// Scratch files live inside the checkout the benchmark runs from.
	o.workdir = filepath.Join(".bench_build", "perfbench-work", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	os.RemoveAll(o.workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// A failed check is reported in the result line, not in the exit code:
	// the run completed and its metrics stand beside the failure count.
	fmt.Println(string(line))
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	workdir  string // scratch directory for stream files and the file store
	quiet    bool   // suppress the human-readable report (tests)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its options, the result being filled and
// the checked-operation counters every workload and rung feeds.
type bench struct {
	options
	res    result
	report []string // human-readable lines printed before the result
	host   hostInfo

	kernelCPU float64 // kernel rung's process CPU per edge, kk and alg1 averaged
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// checked counts one verified operation; a non-nil err marks it failed and
// keeps the first few failures for the report.
func (b *bench) checked(err error) {
	b.res.Attempted++
	if err != nil {
		b.res.Failed++
		if b.res.Failed <= 5 {
			b.logf("FAILED: %v", err)
		}
	}
}

func (b *bench) logf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

func run(o options) (result, error) {
	b := &bench{options: o, res: result{Metrics: map[string]metric{}}}
	b.host = readHost()
	steal0 := readSteal()
	if err := workloads[o.workload](b); err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.host.StealFrac = readSteal().since(steal0)
	if o.trace == 1 {
		b.set("host.calib_ns", b.host.CalibNs, "ns")
		b.set("host.cpu_share", 1-b.host.StealFrac, "frac")
	}
	b.res.Correct = b.res.Failed == 0 && b.res.Attempted > 0
	if !o.quiet {
		host, _ := json.Marshal(b.host)
		fmt.Printf("host %s\n", host)
		for _, line := range b.report {
			fmt.Println(line)
		}
		names := make([]string, 0, len(b.res.Metrics))
		for name := range b.res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := b.res.Metrics[name]
			fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
		}
		fmt.Printf("checked operations %d, failed %d, GOMAXPROCS %d\n",
			b.res.Attempted, b.res.Failed, runtime.GOMAXPROCS(0))
	}
	return b.res, nil
}
