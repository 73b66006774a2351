package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"streamcover"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
)

// algoNames are the two algorithms every workload alternates: KK keeps
// Θ(m) words, Algorithm 1 keeps Õ(m/√n) — the paper's space gap.
var algoNames = [2]string{"kk", "alg1"}

// instance is one workload input: a planted set cover instance in random
// arrival order, the session configuration of each algorithm, and each
// algorithm's reference result from an in-process RunEdges.
type instance struct {
	inst  *setcover.Instance
	edges []stream.Edge
	half  int // the detach point of split sessions
	cfgs  [2]lifecycle.Config
	refs  [2]lifecycle.Result
}

// newInstance builds the planted instance for seed. Seed 1 reproduces the
// repository's standard perf instance (generator rng 1, order rng 7).
func newInstance(seed uint64, n, m, opt int) (*instance, error) {
	w := streamcover.PlantedWorkload(streamcover.NewRand(seed), n, m, opt, 0)
	in := &instance{inst: w.Inst}
	in.edges = streamcover.Arrange(w.Inst, streamcover.RandomOrder, streamcover.NewRand(seed+6))
	in.half = len(in.edges) / 2
	for a, name := range algoNames {
		in.cfgs[a] = lifecycle.Config{Algo: name, N: n, M: m, StreamLen: len(in.edges), Seed: 41 + seed}
		alg, err := lifecycle.Build(in.cfgs[a])
		if err != nil {
			return nil, err
		}
		r := stream.RunEdges(alg, in.edges)
		if err := r.Cover.Verify(in.inst); err != nil {
			return nil, fmt.Errorf("reference %s cover: %w", name, err)
		}
		in.refs[a] = lifecycle.Result{Edges: r.Edges, Cover: r.Cover, Space: r.Space}
	}
	return in, nil
}

// check byte-compares a session's output with the reference of algorithm
// a: edge count, every cover set, every certificate entry and both space
// meters.
func (in *instance) check(a int, got lifecycle.Result) error {
	want := in.refs[a]
	switch {
	case got.Cover == nil:
		return fmt.Errorf("%s: no cover", algoNames[a])
	case got.Edges != want.Edges:
		return fmt.Errorf("%s: %d edges, want %d", algoNames[a], got.Edges, want.Edges)
	case !slices.Equal(got.Cover.Sets, want.Cover.Sets):
		return fmt.Errorf("%s: cover differs from the reference", algoNames[a])
	case !slices.Equal(got.Cover.Certificate, want.Cover.Certificate):
		return fmt.Errorf("%s: certificate differs from the reference", algoNames[a])
	case got.Space != want.Space:
		return fmt.Errorf("%s: space %+v, want %+v", algoNames[a], got.Space, want.Space)
	}
	return nil
}

// panelSize is how many instances the paper quantities average over.
const panelSize = 16

// paperQuantities reports the kk+alg1 pair's cover size and peak metered
// state words — the paper's two quantities — as means over a panel of
// instances of the workload's shape: the served one and panelSize-1 more
// generated from the seed. On the small instance one instance's cover
// swings by up to a tenth from seed to seed; the panel mean moves about a
// quarter as much, and it is still exact for a given seed.
func (b *bench) paperQuantities(in *instance, gen func(seed uint64) (*instance, error)) error {
	var sets, words float64
	for k := 0; k < panelSize; k++ {
		p := in
		if k > 0 {
			var err error
			if p, err = gen(b.seed + uint64(k)<<32); err != nil {
				return err
			}
		}
		sets += float64(len(p.refs[0].Cover.Sets) + len(p.refs[1].Cover.Sets))
		words += float64(p.refs[0].Space.State + p.refs[1].Space.State)
	}
	b.set("cover_sets", sets/panelSize, "sets")
	b.set("state_words", words/panelSize, "words")
	b.logf("instance: n=%d m=%d edges=%d; kk cover %d sets / %d words, alg1 cover %d sets / %d words",
		in.cfgs[0].N, in.cfgs[0].M, len(in.edges),
		len(in.refs[0].Cover.Sets), in.refs[0].Space.State, len(in.refs[1].Cover.Sets), in.refs[1].Space.State)
	return nil
}

// writeStreamFile encodes the instance as a stream file in dir.
func (in *instance) writeStreamFile(dir string) (string, error) {
	var buf bytes.Buffer
	hdr := stream.Header{N: in.cfgs[0].N, M: in.cfgs[0].M, E: len(in.edges)}
	if err := stream.Encode(&buf, hdr, in.edges); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "workload.scs")
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// batches calls fn on edges in MaxBatch slices — the granularity in which
// the wire and stream.Run hand edges to ProcessBatch.
func batches(edges []stream.Edge, fn func([]stream.Edge)) {
	for i := 0; i < len(edges); i += lifecycle.MaxBatch {
		fn(edges[i:min(i+lifecycle.MaxBatch, len(edges))])
	}
}

// standard instance shapes: the perf instance of file-batch and serve-long,
// and the small instance of serve-churn.
func bigInstance(seed uint64) (*instance, error)   { return newInstance(seed, 900, 18000, 15) }
func smallInstance(seed uint64) (*instance, error) { return newInstance(seed, 100, 400, 5) }
