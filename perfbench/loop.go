package main

import (
	"runtime"
	"sync"
	"time"
)

// sessionRec is one session of the closed loop.
type sessionRec struct {
	algo       int
	start, end time.Time
	edges      int           // 0 when the session failed
	resume     time.Duration // dial-to-ack of the resume leg; 0 when none
}

// sessionFunc runs one complete, verified session of algorithm algo and
// returns the edges it processed and the resume latency, if it resumed.
type sessionFunc func(c *client, algo int) (edges int, resume time.Duration, err error)

// client is one closed-loop load generator: it starts its next session as
// soon as the previous one returns. The loop holds at most GOMAXPROCS of
// them, so the generator never outnumbers the cores the server needs.
type client struct {
	buf []byte  // reply frame buffer
	tr  *tracer // nil on untraced runs
}

// tracer keeps the spans of one client in memory: each mark closes the span
// that started at the previous mark.
type tracer struct {
	last  time.Time
	spans map[string][]float64 // span name -> durations in µs
}

func (c *client) begin() {
	if c.tr != nil {
		c.tr.last = time.Now()
	}
}

func (c *client) mark(name string) {
	if c.tr == nil {
		return
	}
	now := time.Now()
	c.tr.spans[name] = append(c.tr.spans[name], micros(now.Sub(c.tr.last)))
	c.tr.last = now
}

// loopStats summarises one closed-loop window.
type loopStats struct {
	rounds       int
	edgesPerS    float64      // median over rounds
	cpuNsPerEdge float64      // median over rounds
	roundEPS     []float64    // per round: edges per wall second
	roundCPE     []float64    // per round: process CPU ns per edge
	sessionMs    [2][]float64 // per algorithm, sessions wholly inside the window
	resumeMs     [2][]float64 // per algorithm, sessions wholly inside the window
	edges        float64      // edges processed inside the window
	sessions     int          // sessions wholly inside the window
	gc           gcSample     // runtime counters over the window
	io           ioCounts     // /proc/self/io counters over the window
	spans        map[string][]float64
}

// loop runs the closed loop with conns clients for a short warm-up and then
// a measured window of the given length, split into rounds. Each session's
// edges are spread evenly over its lifetime and credited to the rounds it
// overlaps, so a round's throughput has no session-boundary quantisation;
// CPU time is sampled at every round boundary. Timed metrics are medians
// over rounds, which keeps one slow stretch of the host from moving them.
func (b *bench) loop(conns int, window time.Duration, fn sessionFunc, traced bool) *loopStats {
	warm := min(time.Second, window/10)
	rounds := max(10, min(60, int(2*window/time.Second)))
	t0 := time.Now().Add(warm)
	t1 := t0.Add(window)

	var mu sync.Mutex
	var recs []sessionRec
	var errs []error
	spans := map[string][]float64{}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{}
			if traced {
				c.tr = &tracer{spans: map[string][]float64{}}
			}
			for k := 0; time.Now().Before(t1); k++ {
				a := (i + k) % 2
				rec := sessionRec{algo: a, start: time.Now()}
				edges, resume, err := fn(c, a)
				rec.end = time.Now()
				if err == nil {
					rec.edges, rec.resume = edges, resume
				}
				mu.Lock()
				recs = append(recs, rec)
				errs = append(errs, err)
				mu.Unlock()
			}
			if c.tr != nil {
				mu.Lock()
				for name, d := range c.tr.spans {
					spans[name] = append(spans[name], d...)
				}
				mu.Unlock()
			}
		}(i)
	}

	bounds := make([]time.Time, rounds+1)
	cpu := make([]time.Duration, rounds+1)
	var gc0, gc1 gcSample
	var io0, io1 ioCounts
	for k := range bounds {
		time.Sleep(time.Until(t0.Add(window * time.Duration(k) / time.Duration(rounds))))
		if k == rounds {
			gc1, io1 = readGC(), readIO()
		}
		bounds[k], cpu[k] = time.Now(), cpuTime()
		if k == 0 {
			gc0, io0 = readGC(), readIO()
		}
	}
	wg.Wait()
	for _, err := range errs {
		b.checked(err)
	}

	ls := &loopStats{rounds: rounds, spans: spans}
	ls.gc = gcSample{gc1.objects - gc0.objects, gc1.bytes - gc0.bytes}
	ls.io = ioCounts{io1.syscr - io0.syscr, io1.syscw - io0.syscw}
	roundEdges := make([]float64, rounds)
	for _, r := range recs {
		if r.edges == 0 {
			continue
		}
		life := r.end.Sub(r.start).Seconds()
		for k := 0; k < rounds; k++ {
			lo, hi := maxTime(r.start, bounds[k]), minTime(r.end, bounds[k+1])
			if hi.After(lo) {
				roundEdges[k] += float64(r.edges) * hi.Sub(lo).Seconds() / life
			}
		}
		if !r.start.Before(bounds[0]) && !r.end.After(bounds[rounds]) {
			ls.sessions++
			ls.sessionMs[r.algo] = append(ls.sessionMs[r.algo], float64(r.end.Sub(r.start).Nanoseconds())/1e6)
			if r.resume > 0 {
				ls.resumeMs[r.algo] = append(ls.resumeMs[r.algo], float64(r.resume.Nanoseconds())/1e6)
			}
		}
	}
	for k, e := range roundEdges {
		ls.edges += e
		if e == 0 {
			continue
		}
		ls.roundEPS = append(ls.roundEPS, e/bounds[k+1].Sub(bounds[k]).Seconds())
		ls.roundCPE = append(ls.roundCPE, float64((cpu[k+1]-cpu[k]).Nanoseconds())/e)
	}
	ls.edgesPerS, ls.cpuNsPerEdge = median(ls.roundEPS), median(ls.roundCPE)
	runtime.GC() // leave the next phase a collected heap
	return ls
}

// merge adds the rounds and sessions of another window of the same
// workload; the medians are then those over both windows' rounds.
func (ls *loopStats) merge(o *loopStats) {
	ls.rounds += o.rounds
	ls.sessions += o.sessions
	ls.edges += o.edges
	ls.roundEPS = append(ls.roundEPS, o.roundEPS...)
	ls.roundCPE = append(ls.roundCPE, o.roundCPE...)
	for a := range ls.sessionMs {
		ls.sessionMs[a] = append(ls.sessionMs[a], o.sessionMs[a]...)
		ls.resumeMs[a] = append(ls.resumeMs[a], o.resumeMs[a]...)
	}
	ls.edgesPerS, ls.cpuNsPerEdge = median(ls.roundEPS), median(ls.roundCPE)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// repeat calls fn until budget has elapsed and at least minReps calls were
// made, stopping at the first error.
func repeat(budget time.Duration, minReps int, fn func(rep int) error) error {
	deadline := time.Now().Add(budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		if err := fn(rep); err != nil {
			return err
		}
	}
	return nil
}
