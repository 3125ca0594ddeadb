package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// backends is the embedded cluster's replica count.
const backends = 2

// testbed is the system under test: backends hetserve replicas on
// loopback behind one hetgate gateway, all in this process, with the
// daemons' default settings (result cache on, Parallelism 1, one
// worker per core).
type testbed struct {
	cfg   serve.Config
	emb   *cluster.Embedded
	gw    *cluster.Gateway
	srv   *http.Server
	base  string
	store *store.Store

	stop context.CancelFunc
	done chan struct{}
}

// serveConfig mirrors the hetserve/hetgate flag defaults.
func serveConfig(st *store.Store) serve.Config {
	return serve.Config{
		Workers:        runtime.GOMAXPROCS(0),
		Parallelism:    1,
		CacheSize:      serve.DefaultCacheSize,
		MaxUploadBytes: serve.DefaultMaxUpload,
		Store:          st,
	}
}

func startTestbed(withStore bool) (*testbed, error) {
	tb := &testbed{done: make(chan struct{})}
	if withStore {
		st, err := store.Open(store.Config{})
		if err != nil {
			return nil, fmt.Errorf("opening threshold store: %w", err)
		}
		tb.store = st
	}
	tb.cfg = serveConfig(tb.store)
	emb, err := cluster.StartEmbedded(backends, tb.cfg)
	if err != nil {
		tb.closeStore()
		return nil, err
	}
	tb.emb = emb
	gw, err := cluster.New(cluster.Config{Backends: emb.URLs()})
	if err != nil {
		emb.Close()
		tb.closeStore()
		return nil, err
	}
	tb.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		emb.Close()
		tb.closeStore()
		return nil, fmt.Errorf("listening for the gateway: %w", err)
	}
	tb.base = "http://" + ln.Addr().String()
	tb.srv = &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	tb.stop = cancel
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = tb.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	go func() {
		defer close(tb.done)
		gw.Run(ctx)
		<-serveDone
	}()
	return tb, nil
}

func (tb *testbed) closeStore() {
	if tb.store != nil {
		_ = tb.store.Close() // in-memory: nothing to flush
	}
}

// Close stops the gateway, its prober and the backends, and waits for
// the gateway's goroutines to exit.
func (tb *testbed) Close() {
	_ = tb.srv.Close() // the listener is ours; a close error changes nothing
	tb.stop()
	<-tb.done
	tb.emb.Close()
	tb.closeStore()
}

// backendIndex maps a backend URL (as the gateway reports it in
// X-Hetgate-Backend) to its embedded index.
func (tb *testbed) backendIndex(url string) (int, error) {
	for i, u := range tb.emb.URLs() {
		if u == url {
			return i, nil
		}
	}
	return 0, errors.New("unknown backend " + url)
}

// spare is one extra hetserve replica outside the ring, configured like
// the cluster's and sharing its store. The traced ladder sends cold
// requests to it so each surface sees the request as cold as the
// gateway's replica did.
type spare struct {
	s    *serve.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func (tb *testbed) startSpare() (*spare, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for the spare replica: %w", err)
	}
	sp := &spare{s: serve.New(tb.cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	sp.srv = &http.Server{Handler: sp.s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(sp.done)
		_ = sp.srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return sp, nil
}

func (sp *spare) Close() {
	_ = sp.srv.Close() // the listener is ours; a close error changes nothing
	<-sp.done
}
