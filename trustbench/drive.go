package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"trustmap/client"
	"trustmap/wire"
)

// clientRun is what one closed-loop client did.
type clientRun struct {
	done      int // ops attempted: the prefix of the op list that ran
	failed    int
	failedAt  map[int]bool
	failedW   int                         // failed writes: their effect is unknown
	lat       [numClasses][]time.Duration // latencies of the ops that succeeded
	ends      [numClasses][]time.Duration // their completion times, from the run's start
	userBytes int                         // request-body bytes of the writes
	queries   wire.QueryStats
	errs      []string
}

// ok reports whether op i ran and succeeded.
func (r *clientRun) ok(i int) bool { return i < r.done && !r.failedAt[i] }

// drive runs every client's op list against baseURL, each client on its
// own connection, and returns when all have finished or the deadline has
// passed. tr is nil on the untraced run.
func drive(baseURL string, ops [][]op, deadline time.Time, tr *tracer) ([]*clientRun, time.Duration) {
	runs := make([]*clientRun, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ops {
		runs[c] = &clientRun{failedAt: map[int]bool{}}
		var rt http.RoundTripper = &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}
		if tr != nil {
			rt = tr.roundTripper(c, rt)
		}
		cl := client.New(baseURL, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 60 * time.Second}))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
			runClient(cl, c, ops[c], start, deadline, runs[c], tr)
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

func runClient(cl *client.Client, c int, ops []op, start, deadline time.Time, out *clientRun, tr *tracer) {
	ctx := context.Background()
	for i := range ops {
		if time.Now().After(deadline) {
			break
		}
		o := &ops[i]
		if tr != nil {
			tr.begin(c, i)
		}
		out.userBytes += payloadBytes(o)
		t0 := time.Now()
		err := issue(ctx, cl, o, out)
		d := time.Since(t0)
		if tr != nil {
			tr.end(c, i, d)
		}
		out.done++
		if err != nil {
			out.failed++
			out.failedAt[i] = true
			if o.class == classObjectWrite || o.class == classSpineWrite {
				out.failedW++
			}
			if len(out.errs) < 5 {
				out.errs = append(out.errs, fmt.Sprintf("client %d op %d (%s): %v", c, i, classNames[o.class], err))
			}
			continue
		}
		out.lat[o.class] = append(out.lat[o.class], d)
		out.ends[o.class] = append(out.ends[o.class], t0.Add(d).Sub(start))
	}
}

// issue sends one op and checks its response is well formed.
func issue(ctx context.Context, cl *client.Client, o *op, out *clientRun) error {
	switch o.class {
	case classRead:
		res, err := cl.ResolveObject(ctx, o.object, o.users)
		if err != nil {
			return err
		}
		if res.Object != o.object || len(res.Users) == 0 {
			return fmt.Errorf("malformed resolution of %s: %d users", o.object, len(res.Users))
		}
	case classObjectWrite:
		res, err := cl.PutBelief(ctx, o.object, o.user, o.value)
		if err != nil {
			return err
		}
		if res.Beliefs[o.user] != o.value {
			return fmt.Errorf("put-belief %s/%s answered %q", o.object, o.user, res.Beliefs[o.user])
		}
	case classSpineWrite:
		res, err := cl.Mutate(ctx, []wire.Op{o.spine})
		if err != nil {
			return err
		}
		if res.Applied != 1 {
			return fmt.Errorf("mutate applied %d of 1 ops", res.Applied)
		}
	case classQuery:
		res, err := cl.Query(ctx, o.query)
		if err != nil {
			return err
		}
		s := res.Stats
		out.queries.RowsScanned += s.RowsScanned
		out.queries.RowsEmitted += s.RowsEmitted
		out.queries.KeyLookups += s.KeyLookups
		out.queries.ShardPartials += s.ShardPartials
	}
	return nil
}

// payloadBytes is the logical size of a write: the object key, user and
// value of a put-belief, or the JSON of a mutate's op. It is the base of
// the WAL's write amplification. Reads and queries store nothing.
func payloadBytes(o *op) int {
	switch o.class {
	case classObjectWrite:
		return len(o.object) + len(o.user) + len(o.value)
	case classSpineWrite:
		raw, err := json.Marshal(o.spine)
		if err != nil {
			panic(err) // a wire.Op always encodes
		}
		return len(raw)
	}
	return 0
}
