package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"icost/internal/daemon"
	"icost/internal/engine"
	"icost/internal/fleet"
)

// ClusterConfig sizes an in-process cluster: N real shard daemons
// (each a full engine + aggregator behind daemon.NewHandler on a
// loopback listener) fronted by one Router. Tests use it to exercise
// the exact production HTTP path — routed requests cross real sockets —
// without managing child processes.
type ClusterConfig struct {
	// Backends is the shard count (default 3).
	Backends int
	// Engine configures each shard's engine identically; the zero
	// value takes the engine's own defaults.
	Engine engine.Config
	// FleetMaxBytes bounds each shard's aggregate store (0 = fleet
	// default).
	FleetMaxBytes int64
	// Router configures the routing tier. Backends is filled in by
	// StartCluster.
	Router Config
}

// Cluster is a running in-process shard cluster.
type Cluster struct {
	// Router is the routing tier; RouterURL is its listening base URL.
	Router    *Router
	RouterURL string

	backends []*shard
	rsrv     *http.Server
	rln      net.Listener
	wg       sync.WaitGroup
}

// shard is one in-process backend daemon.
type shard struct {
	url string
	e   *engine.Engine
	agg *fleet.Aggregator
	srv *http.Server
	ln  net.Listener
}

// StartCluster boots the shards, then the router over them. Close the
// returned cluster to tear everything down; ctx cancellation stops
// the router's replication worker.
func StartCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	c := &Cluster{}
	for i := 0; i < cfg.Backends; i++ {
		s, err := c.startShard(cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		c.backends = append(c.backends, s)
	}
	rcfg := cfg.Router
	rcfg.Backends = c.BackendURLs()
	rt, err := New(ctx, rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.rln = ln
	c.rsrv = &http.Server{Handler: rt.Handler()}
	c.RouterURL = "http://" + ln.Addr().String()
	c.serve(c.rsrv, ln)
	return c, nil
}

func (c *Cluster) startShard(cfg ClusterConfig) (*shard, error) {
	e := engine.New(cfg.Engine)
	agg := fleet.NewAggregator(fleet.Config{MaxBytes: cfg.FleetMaxBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	s := &shard{
		url: "http://" + ln.Addr().String(),
		e:   e,
		agg: agg,
		srv: &http.Server{Handler: daemon.NewHandler(e, agg, daemon.Options{})},
		ln:  ln,
	}
	c.serve(s.srv, ln)
	return s, nil
}

// serve runs one http.Server on its listener under the cluster's
// WaitGroup, so Close can wait for every serve loop to unwind.
func (c *Cluster) serve(srv *http.Server, ln net.Listener) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Serve returns ErrServerClosed (or a listener error) once the
		// shard is shut down; the cluster is torn down as a unit, so
		// the error has no one left to tell.
		_ = srv.Serve(ln)
	}()
}

// BackendURLs lists the shard base URLs in spawn order.
func (c *Cluster) BackendURLs() []string {
	out := make([]string, len(c.backends))
	for i, s := range c.backends {
		out[i] = s.url
	}
	return out
}

// BackendEngine exposes shard i's engine (tests inspect replica state
// directly).
func (c *Cluster) BackendEngine(i int) *engine.Engine { return c.backends[i].e }

// KillBackend hard-stops shard i — the listener closes and every
// in-flight request on it dies mid-stream, like a machine loss. The
// router discovers the death through transport errors, not through
// any side channel.
func (c *Cluster) KillBackend(i int) {
	s := c.backends[i]
	if s.srv == nil {
		return
	}
	_ = s.srv.Close()
	s.e.Close()
	s.srv = nil
}

// Close tears down the router and every shard and waits for all serve
// loops.
func (c *Cluster) Close() {
	if c.rsrv != nil {
		_ = c.rsrv.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
	for _, s := range c.backends {
		if s.srv != nil {
			_ = s.srv.Close()
			s.e.Close()
			s.srv = nil
		}
	}
	c.wg.Wait()
}
