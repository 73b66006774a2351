package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the host record printed with every result, so a run on
// another machine reads as a rebaseline rather than a regression.
type hostInfo struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CalibNs    float64 `json:"calib_ns"`
	StealFrac  float64 `json:"steal_frac"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CalibNs:    calibrate(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed dependent integer loop owned by the benchmark and
// returns the median of 9 timings in ns. It moves only with the host — clock
// speed, a noisy neighbour — so it tells a slow host from a slow change.
func calibrate() float64 {
	var ts []float64
	for r := 0; r < 9; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		calibSink += x
	}
	return median(ts)
}

// stealSample is the aggregate cpu line of /proc/stat.
type stealSample struct{ steal, total uint64 }

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var s stealSample
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		s.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			s.steal = v
		}
	}
	return s
}

// since is the share of host CPU time stolen by the hypervisor between two
// samples.
func (s stealSample) since(prev stealSample) float64 {
	if s.total <= prev.total {
		return 0
	}
	return float64(s.steal-prev.steal) / float64(s.total-prev.total)
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ioCounts are the read and write syscall counters of /proc/self/io.
type ioCounts struct{ syscr, syscw float64 }

func readIO() ioCounts {
	var c ioCounts
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "syscr":
			c.syscr = n
		case "syscw":
			c.syscw = n
		}
	}
	return c
}

// gcSample holds the runtime/metrics counters the traced run reports.
type gcSample struct{ objects, bytes float64 }

var gcNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcNames))
	for i, name := range gcNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return gcSample{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// liveHeap forces a full collection and returns the bytes it found live.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pairQuantile is the mean over kk and alg1 of each algorithm's own
// q-quantile. Workloads alternate the two algorithms, whose costs differ, so
// a pooled quantile would sit between two modes and jump from run to run.
func pairQuantile(byAlgo [2][]float64, q float64) float64 {
	return (quantile(byAlgo[0], q) + quantile(byAlgo[1], q)) / 2
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
