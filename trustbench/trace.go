package main

// The traced run. Spans are recorded from outside the program, at the
// public seam of each layer, and nest per request:
//
//	client.call       the client method call, timed by the client loop
//	 client.roundtrip an http.RoundTripper around the client's transport,
//	                  from sending the request to receiving the headers
//	  httpd.serve     an http.Handler around httpd.Server
//	   backend.<M>    a shard.Backend decorator handed to httpd.NewBackend
//
// A request names itself to the server in a header; the handler passes
// the name on in the request context, which httpd hands to the backend.
// Mutate takes no context, so its span is matched through the op's
// truster or root: client write keyspaces are disjoint, and a closed-loop
// client has one request in flight.
//
// Self time is a span's duration minus its child's, so client, net,
// httpd and backend self times add up to the client-observed time; the
// remainder (negative self times clamped to zero, unmatched spans) is
// reported beside them. Backend calls a handler makes besides the traced
// one (Epoch, LSN, Object) count as httpd self time.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"trustmap"
	"trustmap/internal/query"
	"trustmap/internal/shard"
	"trustmap/wire"
)

// opHeader carries "client/index" from the traced transport to the
// traced handler.
const opHeader = "X-Trustbench-Op"

// spanRec is one request's nested span durations. Each field is written
// by exactly one goroutine: call by the client, roundtrip by its
// transport, serve by the server's handler, backend and hit by the
// backend call; all are read after the run, once the server has shut
// down.
type spanRec struct {
	call, roundtrip, serve, backend time.Duration
	matched                         bool // the backend span was found
	hit                             int8 // reads: 1 cache hit, 0 miss, -1 not attributable
}

type opRef struct{ c, i int }

type ctxKey struct{}

type tracer struct {
	spans    [][]spanRec
	classes  [][]int
	inflight []atomic.Int64 // per client: the op index in flight
	w        *world
	stores   []*trustmap.Store
}

func newTracer(ops [][]op, w *world, stores []*trustmap.Store) *tracer {
	tr := &tracer{w: w, stores: stores, inflight: make([]atomic.Int64, len(ops))}
	tr.spans = make([][]spanRec, len(ops))
	tr.classes = make([][]int, len(ops))
	for c := range ops {
		tr.spans[c] = make([]spanRec, len(ops[c]))
		tr.classes[c] = make([]int, len(ops[c]))
		for i := range ops[c] {
			tr.classes[c][i] = ops[c][i].class
			tr.spans[c][i].hit = -1
		}
	}
	return tr
}

func (tr *tracer) begin(c, i int)                { tr.inflight[c].Store(int64(i)) }
func (tr *tracer) end(c, i int, d time.Duration) { tr.spans[c][i].call = d }

// --- client.roundtrip ----------------------------------------------------

type tracedTransport struct {
	tr   *tracer
	c    int
	next http.RoundTripper
}

func (tr *tracer) roundTripper(c int, next http.RoundTripper) http.RoundTripper {
	return &tracedTransport{tr: tr, c: c, next: next}
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := int(t.tr.inflight[t.c].Load())
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, fmt.Sprintf("%d/%d", t.c, i))
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.spans[t.c][i].roundtrip += time.Since(t0)
	return resp, err
}

func (t *tracedTransport) CloseIdleConnections() {
	if ci, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// --- httpd.serve ---------------------------------------------------------

func (tr *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseRef(r.Header.Get(opHeader), tr.spans)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, ref))
		t0 := time.Now()
		next.ServeHTTP(w, r)
		tr.spans[ref.c][ref.i].serve = time.Since(t0)
	})
}

func parseRef(h string, spans [][]spanRec) (opRef, bool) {
	cs, is, ok := strings.Cut(h, "/")
	if !ok {
		return opRef{}, false
	}
	c, err1 := strconv.Atoi(cs)
	i, err2 := strconv.Atoi(is)
	if err1 != nil || err2 != nil || c < 0 || c >= len(spans) || i < 0 || i >= len(spans[c]) {
		return opRef{}, false
	}
	return opRef{c, i}, true
}

// --- backend.<Method> ----------------------------------------------------

// tracedBackend decorates the backend httpd serves; the four methods the
// benchmark's op classes reach are timed, the rest pass through.
type tracedBackend struct {
	shard.Backend
	tr *tracer
}

func (tr *tracer) backend(b shard.Backend) shard.Backend { return &tracedBackend{Backend: b, tr: tr} }

func (tr *tracer) record(ref opRef, d time.Duration) {
	s := &tr.spans[ref.c][ref.i]
	s.backend, s.matched = d, true
}

func refOf(ctx context.Context) (opRef, bool) {
	ref, ok := ctx.Value(ctxKey{}).(opRef)
	return ref, ok
}

// owner is the store holding key.
func (tr *tracer) owner(key string) *trustmap.Store {
	return tr.stores[wire.ShardOwner(key, len(tr.stores))]
}

func (b *tracedBackend) ResolveObject(ctx context.Context, key string) (trustmap.ObjectRow, error) {
	ref, ok := refOf(ctx)
	st := b.tr.owner(key)
	before := st.Stats()
	t0 := time.Now()
	row, err := b.Backend.ResolveObject(ctx, key)
	d := time.Since(t0)
	after := st.Stats()
	if ok {
		b.tr.record(ref, d)
		// The store's cache counters are shared: a call is attributed
		// only when it alone moved them.
		hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
		switch {
		case hits == 1 && misses == 0:
			b.tr.spans[ref.c][ref.i].hit = 1
		case hits == 0 && misses == 1:
			b.tr.spans[ref.c][ref.i].hit = 0
		}
	}
	return row, err
}

func (b *tracedBackend) PutBelief(ctx context.Context, user, key, value string) error {
	t0 := time.Now()
	err := b.Backend.PutBelief(ctx, user, key, value)
	if ref, ok := refOf(ctx); ok {
		b.tr.record(ref, time.Since(t0))
	}
	return err
}

func (b *tracedBackend) Query(ctx context.Context, q wire.Query) (*query.Result, error) {
	t0 := time.Now()
	res, err := b.Backend.Query(ctx, q)
	if ref, ok := refOf(ctx); ok {
		b.tr.record(ref, time.Since(t0))
	}
	return res, err
}

func (b *tracedBackend) Mutate(ops []wire.Op) (int, error) {
	t0 := time.Now()
	n, err := b.Backend.Mutate(ops)
	d := time.Since(t0)
	if len(ops) == 1 {
		if c := b.tr.spineOwner(ops[0]); c >= 0 {
			b.tr.record(opRef{c, int(b.tr.inflight[c].Load())}, d)
		}
	}
	return n, err
}

// spineOwner is the client whose keyspace holds op's truster or root.
func (tr *tracer) spineOwner(o wire.Op) int {
	name := o.Truster
	if name == "" {
		name = o.User
	}
	var x int
	if _, err := fmt.Sscanf(name, "u%d", &x); err != nil {
		return -1
	}
	return x % tr.w.sp.clients
}

// --- the ledger of self times ---------------------------------------------

// selfTimes is the per-class breakdown of the client-observed time, in
// mean microseconds per op.
type selfTimes struct {
	n                                            int
	call, client, net, httpd, backend, remainder float64
	hitN, missN                                  int
	hitUS, missUS                                float64
}

func clampSub(a, b time.Duration) time.Duration {
	if a < b {
		return 0
	}
	return a - b
}

// breakdown folds the spans of every op that ran and succeeded.
func (tr *tracer) breakdown(runs []*clientRun, ok func(c, i int) bool) [numClasses]selfTimes {
	var out [numClasses]selfTimes
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for c, run := range runs {
		for i := 0; i < run.done; i++ {
			if !ok(c, i) {
				continue
			}
			s := tr.spans[c][i]
			t := &out[tr.classes[c][i]]
			back := s.backend
			if !s.matched {
				back = 0
			}
			selfC := clampSub(s.call, s.roundtrip)
			selfN := clampSub(s.roundtrip, s.serve)
			selfH := clampSub(s.serve, back)
			t.n++
			t.call += us(s.call)
			t.client += us(selfC)
			t.net += us(selfN)
			t.httpd += us(selfH)
			t.backend += us(back)
			t.remainder += us(s.call - selfC - selfN - selfH - back)
			switch s.hit {
			case 1:
				t.hitN++
				t.hitUS += us(back)
			case 0:
				t.missN++
				t.missUS += us(back)
			}
		}
	}
	for k := range out {
		t := &out[k]
		if t.n > 0 {
			n := float64(t.n)
			t.call /= n
			t.client /= n
			t.net /= n
			t.httpd /= n
			t.backend /= n
			t.remainder /= n
		}
		if t.hitN > 0 {
			t.hitUS /= float64(t.hitN)
		}
		if t.missN > 0 {
			t.missUS /= float64(t.missN)
		}
	}
	return out
}
