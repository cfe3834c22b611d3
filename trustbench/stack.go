package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"trustmap"
	"trustmap/internal/admission"
	"trustmap/internal/httpd"
	"trustmap/internal/shard"
)

// setupTimes splits one set-up into its phases (seconds). network is the
// benchmark's own work — generating the network, the objects and the
// spine batch from the seed — and is logged but left out of total.
type setupTimes struct {
	total, network, open, spine, objects, checkpoint, resolveAll float64
}

// stack is the system under test: the backend (one durable store or a
// Router over durable shards) plus, once serving, the HTTP server.
type stack struct {
	sp      spec
	backend shard.Backend
	router  *shard.Router // nil for a single store
	stores  []*trustmap.Store

	httpSrv *http.Server
	served  chan error
	baseURL string
}

func storeDirs(dir string, sp spec) []string {
	if sp.shards == 0 {
		return []string{filepath.Join(dir, "store")}
	}
	out := make([]string, sp.shards)
	for i := range out {
		out[i] = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
	}
	return out
}

// openBackend opens (or reopens) the durable store(s) under dir.
func openBackend(dir string, sp spec) (*stack, error) {
	s := &stack{sp: sp}
	for _, d := range storeDirs(dir, sp) {
		st, err := trustmap.OpenStore(d, trustmap.WithDurability(sp.mode))
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, st)
	}
	if sp.shards == 0 {
		s.backend = shard.NewSingleStore(s.stores[0])
		return s, nil
	}
	rt, err := shard.NewRouter(s.stores)
	if err != nil {
		s.close()
		return nil, err
	}
	s.router, s.backend = rt, rt
	return s, nil
}

// setup builds the workload's initial state the way trustd seeds a data
// directory: the spine as one mutate batch, then every object through the
// logged object path, then a checkpoint and one warm ResolveAll.
func setup(dir string, sp spec, seed uint64) (*stack, *world, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	lap := func(into *float64) {
		now := time.Now()
		*into = now.Sub(start).Seconds()
		start = now
	}
	w := newWorld(sp, seed)
	spineOps := w.spineOps()
	lap(&t.network)

	s, err := openBackend(dir, sp)
	if err != nil {
		return nil, nil, t, err
	}
	lap(&t.open)
	fail := func(err error) (*stack, *world, setupTimes, error) {
		s.close()
		return nil, nil, t, err
	}
	if _, err := s.backend.Mutate(spineOps); err != nil {
		return fail(fmt.Errorf("seeding the spine: %w", err))
	}
	lap(&t.spine)
	ctx := context.Background()
	for o := range w.objects {
		if err := s.backend.PutObject(ctx, objectName(o), w.objectBeliefs(o)); err != nil {
			return fail(fmt.Errorf("seeding object %d: %w", o, err))
		}
	}
	lap(&t.objects)
	if _, err := s.backend.Checkpoint(); err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	lap(&t.checkpoint)
	if err := s.resolveAll(ctx); err != nil {
		return fail(fmt.Errorf("warm resolve: %w", err))
	}
	lap(&t.resolveAll)
	t.total = t.open + t.spine + t.objects + t.checkpoint + t.resolveAll
	return s, w, t, nil
}

// resolveAll runs one full resolution over the backend's stores.
func (s *stack) resolveAll(ctx context.Context) error {
	if s.router != nil {
		_, err := s.router.ResolveAll(ctx)
		return err
	}
	_, err := s.stores[0].ResolveAll(ctx)
	return err
}

// serve starts the real HTTP stack on a loopback listener: handler wraps
// the httpd.Server (the traced run puts its span recorder there).
func (s *stack) serve(backend shard.Backend, wrap func(http.Handler) http.Handler) error {
	// More admission slots than clients, so the gates count every
	// request without ever queueing or shedding one.
	gate := admission.Config{MaxConcurrent: 2 * s.sp.clients, MaxQueue: s.sp.clients}
	var h http.Handler = httpd.NewBackend(backend, httpd.Config{Reads: gate, Mutations: gate})
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.baseURL = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return nil
}

// stopServing shuts the listener down and waits for the serve loop.
func (s *stack) stopServing() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.httpSrv = nil
	return err
}

// close stops serving and closes every store.
func (s *stack) close() error {
	err := s.stopServing()
	for _, st := range s.stores {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.stores = nil
	return err
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
