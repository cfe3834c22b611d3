package main

import (
	"fmt"
	"reflect"
	"testing"
)

// tiny shrinks a workload to a size a test runs in about a second,
// keeping its stack, policy and mix.
func tiny(sp spec, clients int) spec {
	sp.clients = clients
	sp.users = 400
	sp.object = 300
	sp.rate = 150
	return sp
}

func TestOpsArePureFunctionsOfSeedClientIndex(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			sp := tiny(sp, clients)
			a := drawOps(newWorld(sp, 7), 7, 200)
			b := drawOps(newWorld(sp, 7), 7, 200)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed drew different op lists")
			}
			c := drawOps(newWorld(sp, 8), 8, 200)
			for cl := range a {
				if reflect.DeepEqual(a[cl], c[cl]) {
					t.Fatalf("client %d drew the same ops for seeds 7 and 8", cl)
				}
			}
		})
	}
}

func TestClassCountsAreExact(t *testing.T) {
	sp := tiny(workloads[1], clients)
	for seed := uint64(1); seed <= 3; seed++ {
		ops := drawOps(newWorld(sp, seed), seed, 1000)
		var counts [numClasses]int
		for _, o := range ops[0] {
			counts[o.class]++
		}
		for k, share := range sp.mix {
			if want := 1000 * share / 10000; counts[k] != want {
				t.Errorf("seed %d: %d %s ops, want %d", seed, counts[k], classNames[k], want)
			}
		}
	}
}

// writeKey is the key an op writes: its object, truster or root.
func writeKey(o op) string {
	switch o.class {
	case classObjectWrite:
		return "object " + o.object
	case classSpineWrite:
		if o.spine.Truster != "" {
			return "truster " + o.spine.Truster
		}
		return "root " + o.spine.User
	}
	return ""
}

func TestWriteKeyspacesAreDisjointAndOpsValid(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			sp := tiny(sp, clients)
			sp.rate = 3000 // many writes per key
			w := newWorld(sp, 3)
			ops := drawOps(w, 3, 3000)
			owner := map[string]int{}
			for c := range ops {
				for i, o := range ops[c] {
					k := writeKey(o)
					if k == "" {
						continue
					}
					if prev, ok := owner[k]; ok && prev != c {
						t.Fatalf("op %d of client %d writes %s, which client %d also writes", i, c, k, prev)
					}
					owner[k] = c
				}
			}
			// Every drawn spine op applies with the server's strictness.
			runs := make([]*clientRun, len(ops))
			for c := range runs {
				runs[c] = &clientRun{done: len(ops[c])}
			}
			if _, err := replay(w, ops, runs).network(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// counters are the run's deterministic counters: the same op list on one
// client must reproduce them exactly.
type counters struct {
	appends, syncs, walBytes                  uint64
	compiles, incremental, valueOnly, recomps int
	rowsScanned, rowsEmitted                  uint64
	replayed                                  uint64
	attempted                                 [numClasses]int
}

func countersOf(info *runInfo) counters {
	b, a := info.before.stats, info.after.stats
	return counters{
		appends:     a.Durability.WALAppends - b.Durability.WALAppends,
		syncs:       a.Durability.WALSyncs - b.Durability.WALSyncs,
		walBytes:    a.Durability.WALBytes - b.Durability.WALBytes,
		compiles:    a.Session.Compiles - b.Session.Compiles,
		incremental: a.Session.IncrementalApplies - b.Session.IncrementalApplies,
		valueOnly:   a.Session.ValueOnlyUpdates - b.Session.ValueOnlyUpdates,
		recomps:     a.Session.FullRecompiles - b.Session.FullRecompiles,
		rowsScanned: a.Query.RowsScanned - b.Query.RowsScanned,
		rowsEmitted: a.Query.RowsEmitted - b.Query.RowsEmitted,
		replayed:    info.replayed,
		attempted:   info.tally.attempted,
	}
}

func TestTinySingleClientRunRepeatsItsCounters(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			sp := tiny(sp, 1)
			var got []counters
			for rep := 0; rep < 2; rep++ {
				res, info, err := run(sp, 5, 1, rep == 1, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d", rep, res.Correct, res.Failed)
				}
				got = append(got, countersOf(info))
			}
			if got[0] != got[1] {
				t.Fatalf("counters differ between identical runs:\n%+v\n%+v", got[0], got[1])
			}
			if got[0].appends == 0 || got[0].walBytes == 0 || got[0].rowsScanned == 0 {
				t.Fatalf("a run left no trace in the ledger: %+v", got[0])
			}
		})
	}
}

func TestScanQueriesFollowSpineWrites(t *testing.T) {
	sp := tiny(workloads[2], clients)
	for _, ops := range drawOps(newWorld(sp, 4), 4, 1000) {
		for i, o := range ops {
			// Queries come in runs, each right after a spine write.
			if o.class == classQuery && (i == 0 || (ops[i-1].class != classSpineWrite && ops[i-1].class != classQuery)) {
				t.Fatalf("query %d does not follow a spine write", i)
			}
		}
	}
}

func TestDealRoundsByLargestRemainder(t *testing.T) {
	got := deal(newRNG(1), 7, []int{5000, 3000, 2000})
	var counts [3]int
	for _, k := range got {
		counts[k]++
	}
	if counts != [3]int{4, 2, 1} {
		t.Fatalf("dealt %v, want [4 2 1]", counts)
	}
}

func TestSeedDoesNotMoveTheCostShape(t *testing.T) {
	sp := workloads[1]
	for seed := uint64(1); seed <= 3; seed++ {
		w := newWorld(sp, seed)
		if len(w.roots) != sp.users/sp.roots {
			t.Fatalf("seed %d: %d roots, want %d", seed, len(w.roots), sp.users/sp.roots)
		}
		for c, ops := range drawOps(w, seed, int(sp.rate*10)/sp.clients) {
			first := true
			for i, o := range ops {
				if o.class != classSpineWrite {
					continue
				}
				if first && o.kind != spineThird {
					t.Fatalf("seed %d client %d: first spine op is kind %d, want a third parent", seed, c, o.kind)
				}
				first = false
				var x int
				if _, err := fmt.Sscanf(o.spine.Truster, "u%d", &x); err == nil && x < sp.users/shallowFrom {
					t.Fatalf("seed %d client %d op %d: spine write on early truster %d", seed, c, i, x)
				}
			}
		}
	}
}
