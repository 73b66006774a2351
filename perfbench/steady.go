package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchEntry is one workload or metric entry of BENCHMARK.json.
type benchEntry struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the steadiness report and the
// smoke test read.
type benchmarkFile struct {
	Workloads []benchEntry `json:"workloads"`
	EndToEnd  []benchEntry `json:"end_to_end"`
	PerLayer  []benchEntry `json:"per_layer"`
}

// steadiness runs every workload of BENCHMARK.json (or only the named one,
// listed there or not) runs times, seeds 1..runs, each in its own process
// as the benchmark is run for real, and prints per metric the median, the
// quartiles and their spread as a share of the median, beside the metric's
// bound. A spread under a third of the bound is marked ok.
func steadiness(runs, seconds int, only string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	list := bf.Workloads
	if only != "" {
		list = []benchEntry{{Name: only}}
	}
	for _, wl := range list {
		values := map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl.Name, seed, err)
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: INCORRECT, %d of %d checked operations failed\n",
					wl.Name, seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs of %d s\n", wl.Name, runs, seconds)
		fmt.Printf("  %-24s %-8s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q := pyQuartiles(values[m.Name])
			spread := (q[2] - q[0]) / q[1]
			status := "ok"
			switch {
			case spread >= m.Bound:
				status = "OVER BOUND"
			case spread >= m.Bound/3:
				status = "wide"
			}
			fmt.Printf("  %-24s %-8s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s\n",
				m.Name, units[m.Name], q[0], q[1], q[2], 100*spread, 100*m.Bound, status)
		}
	}
	return nil
}

// pyQuartiles matches Python's statistics.quantiles(xs, n=4), whose default
// method is "exclusive", so the spreads agree with ones computed in Python.
func pyQuartiles(xs []float64) [3]float64 {
	var q [3]float64
	if len(xs) < 2 {
		for i := range q {
			if len(xs) == 1 {
				q[i] = xs[0]
			}
		}
		return q
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q
}
