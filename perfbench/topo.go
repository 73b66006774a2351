package main

import (
	"context"
	"errors"
	"time"

	"streamcover/internal/serve"
	"streamcover/internal/serve/store"
)

// topology is a running set of in-process servers reached at addr.
type topology struct {
	addr  string
	stops []func() error // run in order by stop
}

func (t *topology) stop() error {
	var errs []error
	for _, f := range t.stops {
		errs = append(errs, f())
	}
	return errors.Join(errs...)
}

// addServer starts one serving shard over st and returns its address.
func (t *topology) addServer(st store.CheckpointStore) (string, error) {
	srv, err := serve.NewServer(serve.ServerConfig{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		return "", err
	}
	if err := srv.Listen(); err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.stops = append(t.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return errors.Join(srv.Shutdown(ctx), <-done)
	})
	return srv.Addr(), nil
}

// startDirect is serve-long's topology: one server over a MemStore.
func startDirect() (*topology, error) {
	t := &topology{}
	addr, err := t.addServer(store.NewMemStore())
	if err != nil {
		t.stop()
		return nil, err
	}
	t.addr = addr
	return t, nil
}

// startCluster starts a StoreServer over a MemStore and the given number of
// shards, each checkpointing through its own ClusterStore client. With
// router set, a Router fronts the shards (serve-churn's topology);
// otherwise addr is the first shard, reached directly.
func startCluster(shards int, router bool) (*topology, error) {
	ss, err := store.NewStoreServer(store.NewMemStore())
	if err != nil {
		return nil, err
	}
	if err := ss.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	ssDone := make(chan error, 1)
	go func() { ssDone <- ss.Serve() }()
	var clients []*store.ClusterStore
	stopStore := func() error {
		var errs []error
		for _, cs := range clients {
			errs = append(errs, cs.Close())
		}
		return errors.Join(append(errs, ss.Close(), <-ssDone)...)
	}
	t := &topology{}
	fail := func(err error) (*topology, error) {
		return nil, errors.Join(err, t.stop(), stopStore())
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		cs := store.NewClusterStore(ss.Addr(), 30*time.Second)
		clients = append(clients, cs)
		addr, err := t.addServer(cs)
		if err != nil {
			return fail(err)
		}
		addrs = append(addrs, addr)
	}
	// The shards stop first, then their store clients, then the store.
	t.stops = append(t.stops, stopStore)
	t.addr = addrs[0]
	if !router {
		return t, nil
	}
	r, err := serve.NewRouter(serve.RouterConfig{Addr: "127.0.0.1:0", Shards: addrs})
	if err != nil {
		return nil, errors.Join(err, t.stop())
	}
	if err := r.Listen(); err != nil {
		return nil, errors.Join(err, t.stop())
	}
	rDone := make(chan error, 1)
	go func() { rDone <- r.Serve() }()
	t.stops = append([]func() error{func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return errors.Join(r.Shutdown(ctx), <-rDone)
	}}, t.stops...)
	t.addr = r.Addr()
	return t, nil
}

// recordScripts records both algorithms' scripts against a scratch server.
func recordScripts(in *instance) ([2]*script, error) {
	var s [2]*script
	t, err := startDirect()
	if err != nil {
		return s, err
	}
	for a := range s {
		if s[a], err = record(in, a, t.addr); err != nil {
			break
		}
	}
	return s, errors.Join(err, t.stop())
}
