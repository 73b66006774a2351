package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsSmoke runs every workload for a second, untraced and traced,
// and checks that every session passed the correctness gate and that the
// result carries exactly the metrics BENCHMARK.json names, each finite and
// above 0, so that a relative change of each is defined.
func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for trace, list := range [][]benchEntry{bf.EndToEnd, bf.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", name, trace), func(t *testing.T) {
				res, err := run(options{workload: name, seed: 2, seconds: 1, trace: trace, workdir: t.TempDir(), quiet: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v: %d of %d checked operations failed", res.Correct, res.Failed, res.Attempted)
				}
				for _, m := range list {
					v, ok := res.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
						t.Errorf("metric %s missing, not finite or not above 0: %+v", m.Name, v)
					}
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(list))
				}
			})
		}
	}
}

// TestGateRejectsMismatch checks that the gate fails a session whose output
// differs from the reference, both in process and over the wire.
func TestGateRejectsMismatch(t *testing.T) {
	in, err := smallInstance(2)
	if err != nil {
		t.Fatal(err)
	}
	good := in.refs[1]
	cov := *good.Cover
	cov.Certificate = slices.Clone(cov.Certificate)
	cov.Certificate[0]++
	bad := good
	bad.Cover = &cov
	if err := in.check(1, good); err != nil {
		t.Fatalf("reference rejected: %v", err)
	}
	if err := in.check(1, bad); err == nil {
		t.Fatal("altered certificate accepted")
	}

	scripts, err := recordScripts(in)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := startDirect()
	if err != nil {
		t.Fatal(err)
	}
	defer topo.stop()
	c := &client{}
	if err := c.longSession(topo.addr, scripts[0]); err != nil {
		t.Fatalf("replayed session failed: %v", err)
	}
	s := *scripts[0]
	s.result = append([]byte(nil), s.result...)
	s.result[len(s.result)-1] ^= 1
	if err := c.longSession(topo.addr, &s); err == nil {
		t.Fatal("altered result frame accepted")
	}
}

// TestQuartilesMatchPython pins pyQuartiles to Python's
// statistics.quantiles(range(1, 11), n=4) and (..., [1, 2, 4]).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
	} {
		if got := pyQuartiles(tc.xs); got != tc.want {
			t.Errorf("pyQuartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
