package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/serve/store"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// traced is the per-layer run. The workload's own loop runs in legs,
// untraced and with spans kept in memory, which give the tracing overhead
// and, from the untraced legs, the runtime and syscall counters. Then each
// layer's rung times the benchmark's calls into that layer's public
// functions on the workload's instance, checking every output, and an
// accounting table sets the rungs' CPU per edge against the workload's.
func (b *bench) traced(w *workload) error {
	in := w.in
	var err error
	if w.path == "" {
		if w.path, err = in.writeStreamFile(b.workdir); err != nil {
			return err
		}
	}
	if w.scripts[0] == nil {
		if w.scripts, err = recordScripts(in); err != nil {
			return err
		}
	}
	budget := max(200*time.Millisecond, time.Duration(b.seconds)*time.Second/30)
	conns := runtime.GOMAXPROCS(0)

	// Untraced and traced legs alternate, so host drift falls on both sides
	// of the overhead ratio alike.
	const pairs = 3
	leg := time.Duration(b.seconds) * time.Second / (3 * pairs)
	var edges float64
	var gc gcSample
	var io ioCounts
	var plainCPU, ratios []float64
	spans := map[string][]float64{}
	for i := 0; i < pairs; i++ {
		p := b.loop(conns, leg, w.session, false)
		t := b.loop(conns, leg, w.session, true)
		plainCPU = append(plainCPU, p.cpuNsPerEdge)
		ratios = append(ratios, t.cpuNsPerEdge/p.cpuNsPerEdge)
		edges += p.edges
		gc = gcSample{gc.objects + p.gc.objects, gc.bytes + p.gc.bytes}
		io = ioCounts{io.syscr + p.io.syscr, io.syscw + p.io.syscw}
		for name, d := range t.spans {
			spans[name] = append(spans[name], d...)
		}
	}
	e2e := median(plainCPU)
	b.set("trace.overhead_ratio", median(ratios), "ratio")
	sessions := edges / float64(len(in.edges))
	b.set("gc.allocs_per_session", gc.objects/sessions, "allocs")
	b.set("gc.alloc_bytes_per_edge", gc.bytes/edges, "B/edge")
	b.set("proc.syscr_per_kedge", 1000*io.syscr/edges, "calls/kedge")
	b.set("proc.syscalls_per_kedge", 1000*(io.syscr+io.syscw)/edges, "calls/kedge")
	b.logf("workload spans (median µs over the traced legs):")
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.logf("  %-8s %12.1f  (%d spans)", name, median(spans[name]), len(spans[name]))
	}

	s := w.scripts[0]
	if w.split {
		b.set("serve.bytes_per_edge", float64(s.splitBytes)/float64(s.edgeCount), "B/edge")
		b.set("serve.frames_per_session", float64(s.splitFrames), "frames")
	} else {
		b.set("serve.bytes_per_edge", float64(len(s.hello)+len(s.edges)+len(s.finish))/float64(s.edgeCount), "B/edge")
		b.set("serve.frames_per_session", float64(s.longFrames), "frames")
	}

	if err := b.kernelRung(in, budget); err != nil {
		return fmt.Errorf("kernel rung: %w", err)
	}
	if err := b.streamRung(in, w.path, budget); err != nil {
		return fmt.Errorf("stream rung: %w", err)
	}
	if err := b.lifecycleRung(in, budget); err != nil {
		return fmt.Errorf("lifecycle rung: %w", err)
	}
	blobs, err := b.snapRung(in, budget)
	if err != nil {
		return fmt.Errorf("snap rung: %w", err)
	}
	if err := b.storeRung(blobs, budget); err != nil {
		return fmt.Errorf("store rung: %w", err)
	}
	if err := b.transportRungs(w.scripts, budget); err != nil {
		return fmt.Errorf("transport rungs: %w", err)
	}
	if err := b.loopbackRung(w.scripts, budget); err != nil {
		return fmt.Errorf("loopback rung: %w", err)
	}
	if err := b.servedRung(in, w.scripts, budget); err != nil {
		return fmt.Errorf("served rung: %w", err)
	}
	b.accounting(in, e2e)
	return nil
}

func (b *bench) value(name string) float64 { return b.res.Metrics[name].Value }

// algoLayer names the package behind each algorithm: kk is KK, core is
// Algorithm 1.
var algoLayer = [2]string{"kk", "core"}

// kernelRung times ProcessBatch over the stream in MaxBatch slices and
// Finish, for each algorithm, on freshly built instances. It also keeps the
// kernels' process CPU per edge, which the lifecycle rung's ingest is set
// against.
func (b *bench) kernelRung(in *instance, budget time.Duration) error {
	e := float64(len(in.edges))
	var cpu [2][]float64
	for a, layer := range algoLayer {
		var drives, fins []float64
		err := repeat(budget, 3, func(int) error {
			alg, err := lifecycle.Build(in.cfgs[a])
			if err != nil {
				return err
			}
			t0, c0 := time.Now(), cpuTime()
			batches(in.edges, alg.(stream.BatchProcessor).ProcessBatch)
			t1, c1 := time.Now(), cpuTime()
			cpu[a] = append(cpu[a], float64((c1-c0).Nanoseconds())/e)
			cov := alg.Finish()
			t2 := time.Now()
			b.checked(in.check(a, lifecycle.Result{Edges: len(in.edges), Cover: cov, Space: alg.(space.Reporter).Space()}))
			drives = append(drives, float64(t1.Sub(t0).Nanoseconds())/e)
			fins = append(fins, micros(t2.Sub(t1)))
			return nil
		})
		if err != nil {
			return err
		}
		b.set(layer+".ns_per_edge", median(drives), "ns/edge")
		b.set(layer+".finish_us", median(fins), "us")
	}
	b.kernelCPU = pairQuantile(cpu, 0.5)
	return nil
}

// streamRung opens the stream file and drains its batches with no
// algorithm attached.
func (b *bench) streamRung(in *instance, path string, budget time.Duration) error {
	var opens, decodes []float64
	err := repeat(budget, 3, func(int) error {
		t0 := time.Now()
		f, err := stream.OpenFile(path)
		if err != nil {
			return err
		}
		defer f.Close()
		t1 := time.Now()
		n := drive(f, nil, len(in.edges)+1)
		t2 := time.Now()
		err = f.Err()
		if err == nil && n != len(in.edges) {
			err = fmt.Errorf("decoded %d edges, want %d", n, len(in.edges))
		}
		b.checked(err)
		opens = append(opens, micros(t1.Sub(t0)))
		decodes = append(decodes, float64(t2.Sub(t1).Nanoseconds())/float64(n))
		return err
	})
	b.set("stream.open_us", median(opens), "us")
	b.set("stream.decode_ns_per_edge", median(decodes), "ns/edge")
	return err
}

// feed hands edges to a session the way the transport does: lease a ring
// buffer, fill it, commit it.
func feed(s *lifecycle.Session, edges []stream.Edge) {
	batches(edges, func(batch []stream.Edge) {
		s.Enqueue(copy(s.Reserve(), batch))
	})
}

// lifecycleRung drives the session manager with no socket: open, half the
// stream, detach, resume, the other half, finish. Ingest is process CPU per
// edge, because the session's worker goroutine runs beside the feeder.
func (b *bench) lifecycleRung(in *instance, budget time.Duration) error {
	mgr, err := lifecycle.NewManager(store.NewMemStore(), nil)
	if err != nil {
		return err
	}
	var open, ingest, detach, resume, finish [2][]float64
	e := float64(len(in.edges))
	err = repeat(budget, 4, func(rep int) error {
		a := rep % 2
		t0 := time.Now()
		s, err := mgr.Open("", obs.TraceID{}, in.cfgs[a])
		if err != nil {
			return err
		}
		t1 := time.Now()
		c0 := cpuTime()
		feed(s, in.edges[:in.half])
		pos, err := s.Flush()
		c1 := cpuTime()
		if err != nil || pos != in.half {
			return fmt.Errorf("flushed at %d (%v), want %d", pos, err, in.half)
		}
		t2 := time.Now()
		if pos, err = mgr.Detach(s, "perfbench"); err != nil || pos != in.half {
			return fmt.Errorf("detached at %d (%v), want %d", pos, err, in.half)
		}
		t3 := time.Now()
		s, pos, err = mgr.Resume(s.Token(), obs.TraceID{}, in.cfgs[a])
		if err != nil || pos != in.half {
			return fmt.Errorf("resumed at %d (%v), want %d", pos, err, in.half)
		}
		t4 := time.Now()
		c2 := cpuTime()
		feed(s, in.edges[in.half:])
		_, err = s.Flush()
		c3 := cpuTime()
		if err != nil {
			return err
		}
		t5 := time.Now()
		res, err := mgr.Finish(s)
		if err != nil {
			return err
		}
		t6 := time.Now()
		b.checked(in.check(a, res))
		open[a] = append(open[a], micros(t1.Sub(t0)))
		ingest[a] = append(ingest[a], float64((c1-c0+c3-c2).Nanoseconds())/e)
		detach[a] = append(detach[a], micros(t3.Sub(t2)))
		resume[a] = append(resume[a], micros(t4.Sub(t3)))
		finish[a] = append(finish[a], micros(t6.Sub(t5)))
		return nil
	})
	if err != nil {
		b.checked(err)
		return err
	}
	b.set("lifecycle.open_us", pairQuantile(open, 0.5), "us")
	b.set("lifecycle.ingest_ns_per_edge", pairQuantile(ingest, 0.5), "ns/edge")
	b.set("lifecycle.detach_us", pairQuantile(detach, 0.5), "us")
	b.set("lifecycle.resume_us", pairQuantile(resume, 0.5), "us")
	b.set("lifecycle.finish_us", pairQuantile(finish, 0.5), "us")
	b.set("lifecycle.ingest_over_kernel", b.value("lifecycle.ingest_ns_per_edge")/b.kernelCPU, "ratio")
	return nil
}

// snapRung encodes each algorithm's state at the half-way point into an
// SCCKPT1 envelope and restores it into a fresh build. Every blob must be
// byte-identical to the first, and the first restore must finish with the
// reference result. It returns one blob per algorithm for the store rung.
func (b *bench) snapRung(in *instance, budget time.Duration) ([2][]byte, error) {
	var blobs [2][]byte
	trace := obs.NewTraceID()
	for a, layer := range algoLayer {
		alg, err := lifecycle.Build(in.cfgs[a])
		if err != nil {
			return blobs, err
		}
		batches(in.edges[:in.half], alg.(stream.BatchProcessor).ProcessBatch)
		var enc, rest []float64
		err = repeat(budget/2, 3, func(rep int) error {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := stream.WriteCheckpointTraced(&buf, in.half, trace, alg); err != nil {
				return err
			}
			t1 := time.Now()
			fresh, err := lifecycle.Build(in.cfgs[a])
			if err != nil {
				return err
			}
			t2 := time.Now()
			pos, _, err := stream.ReadCheckpointTraced(bytes.NewReader(buf.Bytes()), fresh)
			t3 := time.Now()
			if err != nil || pos != in.half {
				return fmt.Errorf("restored at %d (%v), want %d", pos, err, in.half)
			}
			enc = append(enc, micros(t1.Sub(t0)))
			rest = append(rest, micros(t3.Sub(t2)))
			if rep > 0 {
				if !bytes.Equal(buf.Bytes(), blobs[a]) {
					return errors.New("checkpoint bytes differ between encodes of one state")
				}
				return nil
			}
			blobs[a] = buf.Bytes()
			batches(in.edges[in.half:], fresh.(stream.BatchProcessor).ProcessBatch)
			r := lifecycle.Result{Edges: len(in.edges), Cover: fresh.Finish(), Space: fresh.(space.Reporter).Space()}
			b.checked(in.check(a, r))
			return nil
		})
		if err != nil {
			b.checked(err)
			return blobs, err
		}
		b.set("snap."+layer+"_encode_us", median(enc), "us")
		b.set("snap."+layer+"_restore_us", median(rest), "us")
		b.set("snap."+layer+"_bytes", float64(len(blobs[a])), "B")
	}
	return blobs, nil
}

// storeRung runs Put, Get, Delete and Reserve with the snap rung's blobs on
// MemStore, FileStore (fsync included, for reference) and a ClusterStore
// talking to a StoreServer over a MemStore.
func (b *bench) storeRung(blobs [2][]byte, budget time.Duration) error {
	fs, err := store.NewFileStore(filepath.Join(b.workdir, "store"))
	if err != nil {
		return err
	}
	ss, err := store.NewStoreServer(store.NewMemStore())
	if err != nil {
		return err
	}
	if err := ss.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	ssDone := make(chan error, 1)
	go func() { ssDone <- ss.Serve() }()
	cs := store.NewClusterStore(ss.Addr(), 30*time.Second)
	defer func() {
		cs.Close()
		ss.Close()
		<-ssDone
	}()

	backends := []struct {
		name string
		st   store.CheckpointStore
	}{{"mem", store.NewMemStore()}, {"file", fs}, {"cluster", cs}}
	for _, be := range backends {
		var put, get [2][]float64
		var del, reserve []float64
		err := repeat(budget, 4, func(rep int) error {
			a := rep % 2
			tok := fmt.Sprintf("perfbench%06d", rep)
			t0 := time.Now()
			if _, err := be.st.Put(tok, blobs[a]); err != nil {
				return err
			}
			t1 := time.Now()
			got, err := be.st.Get(tok)
			if err != nil {
				return err
			}
			t2 := time.Now()
			if !bytes.Equal(got, blobs[a]) {
				return errors.New("store returned different bytes")
			}
			t3 := time.Now()
			if err := be.st.Delete(tok); err != nil {
				return err
			}
			t4 := time.Now()
			won, err := be.st.(store.Reserver).Reserve(tok)
			if err != nil || !won {
				return fmt.Errorf("reserve of a free token: won=%v err=%v", won, err)
			}
			t5 := time.Now()
			if err := be.st.Delete(tok); err != nil {
				return err
			}
			b.checked(nil)
			put[a] = append(put[a], micros(t1.Sub(t0)))
			get[a] = append(get[a], micros(t2.Sub(t1)))
			del = append(del, micros(t4.Sub(t3)))
			reserve = append(reserve, micros(t5.Sub(t4)))
			return nil
		})
		if err != nil {
			b.checked(err)
			return fmt.Errorf("%s store: %w", be.name, err)
		}
		b.set("store."+be.name+".put_us", pairQuantile(put, 0.5), "us")
		b.set("store."+be.name+".get_us", pairQuantile(get, 0.5), "us")
		if be.name == "cluster" {
			b.set("store.cluster.reserve_us", median(reserve), "us")
			b.set("store.cluster.delete_us", median(del), "us")
		}
	}
	return nil
}

// transportRungs replay split sessions with client-side spans, once against
// a single shard on a cluster store and once through a Router in front of
// two such shards; the difference is the router hop.
func (b *bench) transportRungs(scripts [2]*script, budget time.Duration) error {
	var hello, resume [2]float64
	for i, router := range []bool{false, true} {
		t, err := startCluster(1+i, router)
		if err != nil {
			return err
		}
		tr := [2]*tracer{{spans: map[string][]float64{}}, {spans: map[string][]float64{}}}
		c := &client{}
		repeat(budget, 4, func(rep int) error {
			c.tr = tr[rep%2]
			_, err := c.splitSession(t.addr, scripts[rep%2])
			b.checked(err)
			return nil
		})
		if err := t.stop(); err != nil {
			return err
		}
		span := func(name string, scale float64) float64 {
			return scale * pairQuantile([2][]float64{tr[0].spans[name], tr[1].spans[name]}, 0.5)
		}
		hello[i], resume[i] = span("hello", 1), span("resume", 1)
		if router {
			break
		}
		// Each send span carries one half of the stream.
		b.set("serve.dial_us", span("dial", 1), "us")
		b.set("serve.send_ns_per_edge", span("send", 1e3/float64(scripts[0].half)), "ns/edge")
		b.set("serve.detach_us", span("detach", 1), "us")
		b.set("serve.finish_us", span("finish", 1), "us")
	}
	b.set("serve.hello_us", hello[0], "us")
	b.set("serve.resume_us", resume[0], "us")
	b.set("router.hello_us", hello[1], "us")
	b.set("router.resume_us", resume[1], "us")
	b.set("router.hop_us", (hello[1]-hello[0]+resume[1]-resume[0])/2, "us")
	return nil
}

// loopbackRung pushes the recorded edge frames through a loopback TCP
// connection into a reader that discards them: the socket's CPU per edge,
// both ends, with no decoding.
func (b *bench) loopbackRung(scripts [2]*script, budget time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	payload := scripts[0].edges
	copies := max(1, (4<<20)/len(payload)) // ≥ 4 MiB per sample
	var per []float64
	err = repeat(budget, 3, func(int) error {
		done := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				done <- err
				return
			}
			buf := make([]byte, 64<<10)
			for err == nil {
				_, err = conn.Read(buf)
			}
			conn.Close()
			done <- nil
		}()
		c0 := cpuTime()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close() // unblock the acceptor
			<-done
			return err
		}
		for i := 0; i < copies && err == nil; i++ {
			_, err = conn.Write(payload)
		}
		conn.(*net.TCPConn).CloseWrite()
		err = errors.Join(err, <-done)
		conn.Close()
		per = append(per, float64((cpuTime()-c0).Nanoseconds())/float64(copies*scripts[0].edgeCount))
		return err
	})
	b.checked(err)
	b.set("serve.loopback_ns_per_edge", median(per), "ns/edge")
	return err
}

// servedRung replays whole sessions, one at a time, to a single server over
// loopback: the process CPU per edge of the served path, client included,
// with no other session competing.
func (b *bench) servedRung(in *instance, scripts [2]*script, budget time.Duration) error {
	t, err := startDirect()
	if err != nil {
		return err
	}
	var per [2][]float64
	c := &client{}
	err = repeat(budget, 4, func(rep int) error {
		a := rep % 2
		c0 := cpuTime()
		err := c.longSession(t.addr, scripts[a])
		per[a] = append(per[a], float64((cpuTime()-c0).Nanoseconds())/float64(len(in.edges)))
		b.checked(err)
		return err
	})
	if err = errors.Join(err, t.stop()); err != nil {
		return err
	}
	b.set("serve.session_ns_per_edge", pairQuantile(per, 0.5), "ns/edge")
	return nil
}

// accounting sets the rungs' CPU per edge beside the workload's and prints
// what they leave unexplained.
func (b *bench) accounting(in *instance, e2e float64) {
	perEdge := 1e3 / float64(len(in.edges)) // µs per session -> ns per edge
	v := b.value
	type row struct {
		name string
		ns   float64
	}
	rows := []row{{"kernel ProcessBatch + Finish",
		(v("kk.ns_per_edge")+v("core.ns_per_edge"))/2 + perEdge*(v("kk.finish_us")+v("core.finish_us"))/2}}
	lifecycleFixed := v("lifecycle.open_us") + v("lifecycle.finish_us")
	handoff := v("lifecycle.ingest_ns_per_edge") - b.kernelCPU
	switch b.workload {
	case "file-batch":
		rows = append(rows, row{"stream open + decode", v("stream.decode_ns_per_edge") + perEdge*v("stream.open_us")})
	case "serve-long":
		rows = append(rows,
			row{"lifecycle handoff + open/finish", handoff + perEdge*lifecycleFixed},
			row{"loopback socket", v("serve.loopback_ns_per_edge")},
			row{"connection dial", perEdge * v("serve.dial_us")})
	case "serve-churn":
		lifecycleFixed += v("lifecycle.detach_us") + v("lifecycle.resume_us")
		storeExtra := v("store.cluster.put_us") - v("store.mem.put_us") + v("store.cluster.get_us") - v("store.mem.get_us") +
			v("store.cluster.reserve_us") + v("store.cluster.delete_us")
		rows = append(rows,
			row{"lifecycle handoff + open/detach/resume/finish", handoff + perEdge*lifecycleFixed},
			row{"cluster store over mem store", perEdge * storeExtra},
			row{"router hop (hello + resume)", perEdge * 2 * v("router.hop_us")},
			row{"loopback socket", v("serve.loopback_ns_per_edge")},
			row{"connection dials (hello + resume)", perEdge * 2 * v("serve.dial_us")})
	}
	b.logf("accounting for %s, CPU ns per edge:", b.workload)
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
		b.logf("  %-48s %10.2f", r.name, r.ns)
	}
	b.logf("  %-48s %10.2f", "sum of rungs", sum)
	b.logf("  %-48s %10.2f", "end to end (cpu_ns_per_edge, untraced)", e2e)
	b.logf("  %-48s %10.2f", "remainder (unexplained)", e2e-sum)
	b.logf("  %-48s %10.2f", "served session alone (serve.session_ns_per_edge)", v("serve.session_ns_per_edge"))
	b.set("accounting.e2e_over_rungs", e2e/sum, "ratio")
}
