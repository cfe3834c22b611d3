package main

import (
	"context"
	"fmt"
	"slices"

	"trustmap"
	"trustmap/wire"
)

// The correctness gate. Client write keyspaces are disjoint, so the
// served final state must equal a serial replay of every client's
// executed writes, client after client. The replay goes into a fresh
// in-memory store compiled once from the final network — independent of
// the incremental paths the server took — and a seeded sample of objects
// is checked once more against Algorithm 1 (Network.Resolve). The
// reopened store(s) must answer identically.

// finalState is the serial replay: the final trust network as wire ops,
// and the final object table.
type finalState struct {
	spine   []wire.Op
	objects map[string]map[string]string
}

// replay folds every executed write onto the initial world.
func replay(w *world, ops [][]op, runs []*clientRun) finalState {
	f := finalState{spine: w.spineOps(), objects: make(map[string]map[string]string, len(w.objects))}
	for o := range w.objects {
		f.objects[objectName(o)] = w.objectBeliefs(o)
	}
	for c, run := range runs {
		for i := 0; i < run.done; i++ {
			switch o := ops[c][i]; o.class {
			case classSpineWrite:
				f.spine = append(f.spine, o.spine)
			case classObjectWrite:
				f.objects[o.object][o.user] = o.value
			}
		}
	}
	return f
}

// network builds the facade network the spine ops describe, applying
// each op with the strictness the server applies it with.
func (f finalState) network() (*trustmap.Network, error) {
	n := trustmap.New()
	for i, op := range f.spine {
		var err error
		switch op.Op {
		case wire.OpSetTrust:
			if !n.UpdateTrust(op.Truster, op.Trusted, op.Priority) {
				n.AddTrust(op.Truster, op.Trusted, op.Priority)
			}
		case wire.OpAddTrust:
			n.AddTrust(op.Truster, op.Trusted, op.Priority)
		case wire.OpRemoveTrust:
			if !n.RemoveTrust(op.Truster, op.Trusted) {
				err = fmt.Errorf("no mapping %s -> %s", op.Trusted, op.Truster)
			}
		case wire.OpSetBelief:
			n.SetBelief(op.User, op.Value)
		default:
			err = fmt.Errorf("unexpected op %q", op.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("replaying spine op %d: %w", i, err)
		}
	}
	return n, nil
}

// oracle is the replayed state, compiled and resolved.
type oracle struct {
	f     finalState
	res   *trustmap.StoreResolution
	users []string
}

func buildOracle(f finalState) (*oracle, error) {
	n, err := f.network()
	if err != nil {
		return nil, err
	}
	st, err := n.NewStore()
	if err != nil {
		return nil, fmt.Errorf("compiling the oracle: %w", err)
	}
	ctx := context.Background()
	for _, k := range sortedKeys(f.objects) {
		if err := st.PutObject(ctx, k, f.objects[k]); err != nil {
			return nil, fmt.Errorf("oracle object %s: %w", k, err)
		}
	}
	res, err := st.ResolveAll(ctx)
	if err != nil {
		return nil, err
	}
	return &oracle{f: f, res: res, users: st.Users()}, nil
}

// lookuper is a resolved batch: one store's or a cluster's.
type lookuper interface {
	Lookup(user, object string) (possible []string, certain string, err error)
}

// checkUsers draws the users whose answers are compared on every object.
func checkUsers(seed uint64, users []string, n int) []string {
	r := newRNG(seed, streamCheck)
	out := make([]string, n)
	for i := range out {
		out[i] = users[r.intn(len(users))]
	}
	return out
}

// compare checks a served backend against the oracle: the user set, every
// object's stored beliefs, and every object's resolution for the check
// users. It returns the served resolution for the Algorithm 1 check.
func (or *oracle) compare(s *stack, seed uint64) (lookuper, error) {
	ctx := context.Background()
	var served lookuper
	if s.router != nil {
		res, err := s.router.ResolveAll(ctx)
		if err != nil {
			return nil, err
		}
		served = res
	} else {
		res, err := s.stores[0].ResolveAll(ctx)
		if err != nil {
			return nil, err
		}
		served = res
	}
	if got := s.stores[0].Users(); !slices.Equal(got, or.users) {
		return nil, fmt.Errorf("served %d users, the replay has %d", len(got), len(or.users))
	}
	keys := s.backend.Objects()
	if want := sortedKeys(or.f.objects); !slices.Equal(keys, want) {
		return nil, fmt.Errorf("served %d objects, the replay has %d", len(keys), len(want))
	}
	users := checkUsers(seed, or.users, 24)
	for _, k := range keys {
		got, _ := s.backend.Object(k)
		if want := or.f.objects[k]; !mapsEqual(got, want) {
			return nil, fmt.Errorf("object %s: served beliefs %v, replay %v", k, got, want)
		}
		for _, u := range users {
			if err := sameAnswer(served, or.res, u, k); err != nil {
				return nil, err
			}
		}
	}
	return served, nil
}

func sameAnswer(got, want lookuper, user, object string) error {
	gp, gc, gerr := got.Lookup(user, object)
	wp, wc, werr := want.Lookup(user, object)
	if gerr != nil || werr != nil {
		return fmt.Errorf("%s/%s: lookup errors served=%v replay=%v", user, object, gerr, werr)
	}
	if !slices.Equal(gp, wp) || gc != wc {
		return fmt.Errorf("%s/%s: served possible=%v certain=%q, replay possible=%v certain=%q", user, object, gp, gc, wp, wc)
	}
	return nil
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// checkAlgorithm1 resolves a seeded sample of objects with Algorithm 1 on
// the replayed network — the object's beliefs stated as network beliefs
// — and compares every user's answer with the served resolution.
func (or *oracle) checkAlgorithm1(served lookuper, seed uint64, samples int) error {
	keys := sortedKeys(or.f.objects)
	r := newRNG(seed, streamCheck, 1)
	for s := 0; s < samples; s++ {
		k := keys[r.intn(len(keys))]
		n, err := or.f.network()
		if err != nil {
			return err
		}
		for u, v := range or.f.objects[k] {
			n.SetBelief(u, v)
		}
		res, err := n.Resolve()
		if err != nil {
			return fmt.Errorf("algorithm 1 on %s: %w", k, err)
		}
		for _, u := range or.users {
			wp, wc, err := served.Lookup(u, k)
			if err != nil {
				return err
			}
			ac, _ := res.Certain(u)
			if ap := res.Possible(u); !slices.Equal(ap, wp) || ac != wc {
				return fmt.Errorf("%s/%s: served possible=%v certain=%q, algorithm 1 possible=%v certain=%q", u, k, wp, wc, ap, ac)
			}
		}
	}
	return nil
}
