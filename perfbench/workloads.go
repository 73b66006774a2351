package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

const (
	// heapSessions are held open, mid-stream, for heap_bytes_per_session.
	heapSessions = 16
	// Resume probes run for a tenth of the window's length and at least
	// this many times, on workloads whose sessions do not resume on their
	// own.
	minResumeProbes = 25
)

// workload is what a measured run needs from one workload.
type workload struct {
	in        *instance
	gen       func(seed uint64) (*instance, error) // the workload's instance shape
	session   sessionFunc
	setup     func(a int) (time.Duration, error) // one set-up, up to the first accepted edge
	setupReps int                                // at least this many set-ups per run
	heap      func(n int) (float64, error)       // live heap per session, n sessions open
	resume    func(a int) (time.Duration, error) // one resume probe; nil when the loop resumes
	path      string                             // the workload stream as a stream file
	scripts   [2]*script                         // the workload stream as recorded client traffic
	split     bool                               // sessions detach and resume (byte and frame counts)
}

// runWorkload runs w traced or untraced, as the options ask.
func (b *bench) runWorkload(w *workload) error {
	if b.trace == 1 {
		return b.traced(w)
	}
	return b.measure(w)
}

// measure is the untraced run: set-up, memory, the closed-loop window and
// the resume probes, reported as the end-to-end metrics.
func (b *bench) measure(w *workload) error {
	// The window runs in legs, with a block of set-ups and resume probes
	// before, between and after them, so that those medians span the whole
	// run as the window's do, rather than resting on one stretch of host
	// load. Blocks run for a fixed time rather than a fixed count: early
	// set-ups are slower, and a median of a few dozen rests on them.
	const legs = 4
	run := time.Duration(b.seconds) * time.Second
	block := run / (10 * (legs + 1))
	var setup, probes [2][]float64
	blocks := func() error {
		err := repeat(block, ceilDiv(w.setupReps, legs+1), func(r int) error {
			d, err := w.setup(r % 2)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setup[r%2] = append(setup[r%2], d.Seconds())
			return nil
		})
		if err != nil || w.resume == nil {
			return err
		}
		return repeat(block, ceilDiv(minResumeProbes, legs+1), func(r int) error {
			d, err := w.resume(r % 2)
			b.checked(err)
			if err == nil {
				probes[r%2] = append(probes[r%2], float64(d.Nanoseconds())/1e6)
			}
			return nil
		})
	}
	if err := blocks(); err != nil {
		return err
	}
	heap, err := w.heap(heapSessions)
	if err != nil {
		return fmt.Errorf("heap probe: %w", err)
	}
	b.set("heap_bytes_per_session", heap, "B")

	ls := &loopStats{}
	for i := 0; i < legs; i++ {
		ls.merge(b.loop(runtime.GOMAXPROCS(0), run/legs, w.session, false))
		if err := blocks(); err != nil {
			return err
		}
	}
	b.set("edges_per_s", ls.edgesPerS, "edges/s")
	b.set("cpu_ns_per_edge", ls.cpuNsPerEdge, "ns/edge")
	b.set("session_p50_ms", pairQuantile(ls.sessionMs, 0.5), "ms")
	b.set("session_p90_ms", pairQuantile(ls.sessionMs, 0.9), "ms")
	b.set("setup_s", pairQuantile(setup, 0.5), "s")
	b.logf("set-ups: kk %d, alg1 %d; quartiles %.4g %.4g %.4g ms", len(setup[0]), len(setup[1]),
		1e3*pairQuantile(setup, 0.25), 1e3*pairQuantile(setup, 0.5), 1e3*pairQuantile(setup, 0.75))
	resume := ls.resumeMs
	if w.resume != nil {
		resume = probes
	}
	b.set("resume_p50_ms", pairQuantile(resume, 0.5), "ms")
	b.logf("resume: quartiles %.4g %.4g %.4g ms", pairQuantile(resume, 0.25), pairQuantile(resume, 0.5),
		pairQuantile(resume, 0.75))
	b.logf("window: %d clients, %d legs, %d rounds, %d sessions inside (kk %d, alg1 %d), resume samples kk %d alg1 %d",
		runtime.GOMAXPROCS(0), legs, ls.rounds, ls.sessions, len(ls.sessionMs[0]), len(ls.sessionMs[1]),
		len(resume[0]), len(resume[1]))
	return b.paperQuantities(w.in, w.gen)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// runFileBatch is the library user's path: each session opens the stream
// file and runs it with stream.Run. No serving code runs.
func runFileBatch(b *bench) error {
	in, err := bigInstance(b.seed)
	if err != nil {
		return err
	}
	fb := &fileBatch{in: in}
	if fb.path, err = in.writeStreamFile(b.workdir); err != nil {
		return err
	}
	for a := range fb.blobs {
		alg, err := lifecycle.Build(in.cfgs[a])
		if err != nil {
			return err
		}
		batches(in.edges[:in.half], alg.(stream.BatchProcessor).ProcessBatch)
		var buf bytes.Buffer
		if err := stream.WriteCheckpoint(&buf, in.half, alg); err != nil {
			return err
		}
		fb.blobs[a] = buf.Bytes()
	}
	w := &workload{in: in, gen: bigInstance, session: fb.session, setup: fb.setup, setupReps: 100, heap: fb.heap,
		resume: fb.resume, path: fb.path}
	return b.runWorkload(w)
}

type fileBatch struct {
	in    *instance
	path  string
	blobs [2][]byte // checkpoints at the half-way point
}

func (fb *fileBatch) session(c *client, a int) (int, time.Duration, error) {
	c.begin()
	f, err := stream.OpenFile(fb.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	alg, err := lifecycle.Build(fb.in.cfgs[a])
	if err != nil {
		return 0, 0, err
	}
	c.mark("open")
	r := stream.Run(alg, f)
	c.mark("run")
	if r.Err != nil {
		return 0, 0, r.Err
	}
	return r.Edges, 0, fb.in.check(a, lifecycle.Result{Edges: r.Edges, Cover: r.Cover, Space: r.Space})
}

// drive feeds the next n edges of f to alg and returns how many it fed.
func drive(f *stream.File, alg stream.Algorithm, n int) int {
	bp, _ := alg.(stream.BatchProcessor) // nil alg: skip edges
	done := 0
	for done < n {
		batch := f.NextBatch(min(lifecycle.MaxBatch, n-done))
		if len(batch) == 0 {
			break
		}
		if bp != nil {
			bp.ProcessBatch(batch)
		}
		done += len(batch)
	}
	return done
}

func (fb *fileBatch) setup(a int) (time.Duration, error) {
	t0 := time.Now()
	f, err := stream.OpenFile(fb.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	alg, err := lifecycle.Build(fb.in.cfgs[a])
	if err != nil {
		return 0, err
	}
	if drive(f, alg, 1) != 1 {
		return 0, errors.New("stream file yielded no edge")
	}
	return time.Since(t0), nil
}

func (fb *fileBatch) heap(n int) (float64, error) {
	type open struct {
		f   *stream.File
		alg stream.Algorithm
	}
	opens := make([]open, 0, n)
	defer func() {
		for _, o := range opens {
			o.f.Close()
		}
	}()
	base := liveHeap()
	for i := 0; i < n; i++ {
		f, err := stream.OpenFile(fb.path)
		if err != nil {
			return 0, err
		}
		alg, err := lifecycle.Build(fb.in.cfgs[i%2])
		if err != nil {
			f.Close()
			return 0, err
		}
		opens = append(opens, open{f, alg})
		if drive(f, alg, fb.in.half) != fb.in.half {
			return 0, errors.New("stream file ended early")
		}
	}
	after := liveHeap()
	runtime.KeepAlive(opens)
	return (after - base) / float64(n), nil
}

// resume is the library's resume path: restore the half-way checkpoint,
// position the stream file behind it, then finish the run and check it.
func (fb *fileBatch) resume(a int) (time.Duration, error) {
	t0 := time.Now()
	f, err := stream.OpenFile(fb.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	alg, err := lifecycle.Build(fb.in.cfgs[a])
	if err != nil {
		return 0, err
	}
	pos, err := stream.ReadCheckpoint(bytes.NewReader(fb.blobs[a]), alg)
	if err != nil {
		return 0, err
	}
	if skipped := drive(f, nil, pos); skipped != pos {
		return 0, fmt.Errorf("skipped %d of %d edges", skipped, pos)
	}
	d := time.Since(t0)
	n := pos + drive(f, alg, len(fb.in.edges))
	if err := f.Err(); err != nil {
		return 0, err
	}
	r := lifecycle.Result{Edges: n, Cover: alg.Finish(), Space: alg.(space.Reporter).Space()}
	return d, fb.in.check(a, r)
}

// runServeLong serves the perf instance over loopback from one server:
// hello, the whole stream, finish.
func runServeLong(b *bench) error {
	in, err := bigInstance(b.seed)
	if err != nil {
		return err
	}
	scripts, err := recordScripts(in)
	if err != nil {
		return err
	}
	topo, err := startDirect()
	if err != nil {
		return err
	}
	w := &workload{in: in, gen: bigInstance, scripts: scripts, setupReps: 40}
	w.session = func(c *client, a int) (int, time.Duration, error) {
		return len(in.edges), 0, c.longSession(topo.addr, scripts[a])
	}
	w.setup = serveSetup(startDirect, scripts)
	w.heap = serveHeap(startDirect, scripts)
	w.resume = func(a int) (time.Duration, error) { return (&client{}).splitSession(topo.addr, scripts[a]) }
	return errors.Join(b.runWorkload(w), topo.stop())
}

// runServeChurn runs short split sessions on the small instance through a
// Router in front of two shards sharing a ClusterStore.
func runServeChurn(b *bench) error {
	in, err := smallInstance(b.seed)
	if err != nil {
		return err
	}
	scripts, err := recordScripts(in)
	if err != nil {
		return err
	}
	start := func() (*topology, error) { return startCluster(2, true) }
	topo, err := start()
	if err != nil {
		return err
	}
	w := &workload{in: in, gen: smallInstance, scripts: scripts, setupReps: 40, split: true}
	w.session = func(c *client, a int) (int, time.Duration, error) {
		d, err := c.splitSession(topo.addr, scripts[a])
		return len(in.edges), d, err
	}
	w.setup = serveSetup(start, scripts)
	w.heap = serveHeap(start, scripts)
	return errors.Join(b.runWorkload(w), topo.stop())
}

// serveSetup times bringing a topology up until its first session is open.
func serveSetup(start func() (*topology, error), scripts [2]*script) func(a int) (time.Duration, error) {
	return func(a int) (time.Duration, error) {
		t0 := time.Now()
		t, err := start()
		if err != nil {
			return 0, err
		}
		conn, _, err := (&client{}).open(t.addr, scripts[a])
		d := time.Since(t0)
		if err == nil {
			conn.Close()
		}
		return d, errors.Join(err, t.stop())
	}
}

// serveHeap measures live heap per session with n sessions open on a fresh
// topology, each flushed half-way through the stream.
func serveHeap(start func() (*topology, error), scripts [2]*script) func(n int) (float64, error) {
	return func(n int) (heap float64, err error) {
		t, err := start()
		if err != nil {
			return 0, err
		}
		var conns []net.Conn
		defer func() {
			for _, conn := range conns {
				conn.Close()
			}
			err = errors.Join(err, t.stop())
		}()
		c := &client{}
		for a := range scripts { // warm the topology's buffers and free-lists
			if _, err := c.splitSession(t.addr, scripts[a]); err != nil {
				return 0, err
			}
		}
		base := liveHeap()
		for i := 0; i < n; i++ {
			s := scripts[i%2]
			conn, _, err := c.open(t.addr, s)
			if err != nil {
				return 0, err
			}
			conns = append(conns, conn)
			if _, err := conn.Write(s.firstHalf); err != nil {
				return 0, err
			}
			if _, err := conn.Write(s.flush); err != nil {
				return 0, err
			}
			if _, err := c.expectPos(conn, framePosAck, s.half); err != nil {
				return 0, err
			}
		}
		return (liveHeap() - base) / float64(n), nil
	}
}
