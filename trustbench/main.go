// Command trustbench is the repository's benchmark: it drives the real
// trustd stack in one process — typed client, loopback listener,
// internal/httpd with admission, a shard.Backend (one store or a 4-shard
// Router), durable stores, WAL and engine — with closed-loop clients, and
// checks the served state against a serial-replay oracle, Algorithm 1 and
// a reopen.
//
//	bash trustbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 runs with spans
// around each layer's public seam and prints the per-layer ledger. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 1 when any correctness or conservation check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"trustmap/client"
)

// setups and reopensPerRun are how many times a run builds the initial
// state and reopens the final one; setup_s and reopen_s are the medians.
const (
	setups        = 5
	reopensPerRun = 5
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "nominal length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
		data    = flag.String("data", ".bench_build", "directory for the stores' data (removed afterwards)")
	)
	flag.Parse()
	sp, err := lookupSpec(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: trustbench --workload NAME --seed N --seconds S --trace 0|1:", err)
		os.Exit(2)
	}
	res, _, err := run(sp, *seed, *seconds, *trace == 1, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trustbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trustbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of ds, in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// tailQ is the percentile every op class reports as its tail. Every class
// has at least 100 samples per run, so p90 leaves ten beyond it. The p99
// of reads and object writes (over 1000 samples) did not reproduce within
// 25% from run to run on the 2-vCPU reference machine — it falls among the
// writes that wait for a group-commit fsync or behind a scan — so the
// tails are p90 throughout.
const tailQ = 0.90

// runInfo is the raw ledger of one run: the counters before and after
// the measured phase, and what the clients did.
type runInfo struct {
	before, after snap
	tally         tally
	replayed      uint64
}

func run(sp spec, seed uint64, seconds int, traced bool, dataRoot string) (*result, *runInfo, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "trustbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, several times: the median is setup_s; the last one serves.
	var (
		s                             *stack
		w                             *world
		totals, compiles, checkpoints []float64
	)
	for k := 0; k < setups; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", k-1))); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		var t setupTimes
		s, w, t, err = setup(filepath.Join(dir, fmt.Sprintf("setup-%d", k)), sp, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		totals = append(totals, t.total)
		compiles = append(compiles, t.spine)
		checkpoints = append(checkpoints, t.checkpoint)
		fmt.Printf("setup %d: %.3fs (network %.3f open %.3f spine %.3f objects %.3f checkpoint %.3f resolve-all %.3f)\n",
			k, t.total, t.network, t.open, t.spine, t.objects, t.checkpoint, t.resolveAll)
	}
	defer s.close()
	dataDir := filepath.Join(dir, fmt.Sprintf("setup-%d", setups-1))

	// The op lists stay live to the end (the oracle replays them), so the
	// heap they take is measured here and left out of heap_mb.
	perClient := int(math.Ceil(sp.rate * float64(seconds) / float64(sp.clients)))
	opsHeap := liveHeap()
	ops := drawOps(w, seed, perClient)
	opsHeap = liveHeap() - opsHeap

	var tr *tracer
	backend := s.backend
	var wrap func(h http.Handler) http.Handler
	if traced {
		tr = newTracer(ops, w, s.stores)
		backend = tr.backend(backend)
		wrap = tr.handler
	}
	if err := s.serve(backend, wrap); err != nil {
		return nil, nil, err
	}
	admin := client.New(s.baseURL)
	ctx := context.Background()
	take := func() (snap, error) {
		var sn snap
		st, err := admin.Stats(ctx)
		if err != nil {
			return sn, err
		}
		sn.stats = st
		runtime.ReadMemStats(&sn.mem)
		return sn, nil
	}
	runtime.GC()
	before, err := take()
	if err != nil {
		return nil, nil, err
	}
	// A run that has not finished at five times its nominal length stops
	// early; the oracle replays exactly the prefixes that ran.
	deadline := time.Now().Add(5 * time.Duration(seconds) * time.Second)
	runs, elapsed := drive(s.baseURL, ops, deadline, tr)
	after, err := take()
	if err != nil {
		return nil, nil, err
	}
	heap := liveHeap() - opsHeap
	if err := s.stopServing(); err != nil {
		return nil, nil, err
	}

	t := tallyRuns(ops, runs)
	res := &result{Correct: true, Attempted: t.total(), Metrics: map[string]metric{}}
	var problems []string
	failedWrites := 0
	for _, r := range runs {
		res.Failed += r.failed
		failedWrites += r.failedW
		problems = append(problems, r.errs...)
	}
	if failedWrites > 0 {
		problems = append(problems, fmt.Sprintf("%d writes failed: the served state cannot be checked", failedWrites))
	}
	problems = append(problems, conservation(sp, t, before, after)...)

	// The oracle, Algorithm 1, then the timed reopen and its check.
	var reopenS float64
	var replayed uint64
	if failedWrites == 0 {
		or, err := buildOracle(replay(w, ops, runs))
		if err != nil {
			return nil, nil, err
		}
		served, err := or.compare(s, seed)
		if err == nil {
			err = or.checkAlgorithm1(served, seed, 2)
		}
		if err != nil {
			problems = append(problems, "served state: "+err.Error())
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
		// Reopen several times (each replays the same WAL suffix):
		// reopen_s is the median, and the last reopened state is checked.
		var reopens []float64
		for k := 0; k < reopensPerRun; k++ {
			runtime.GC()
			t0 := time.Now()
			re, err := openBackend(dataDir, sp)
			if err != nil {
				return nil, nil, fmt.Errorf("reopen: %w", err)
			}
			reopens = append(reopens, time.Since(t0).Seconds())
			replayed = re.backend.Durability().ReplayedOps
			if k == reopensPerRun-1 {
				if _, err := or.compare(re, seed); err != nil {
					problems = append(problems, "reopened state: "+err.Error())
				}
			}
			if err := re.close(); err != nil {
				return nil, nil, err
			}
		}
		reopenS = median(reopens)
		fmt.Printf("reopens: %.3f s\n", reopens)
	}

	elapsedS := elapsed.Seconds()
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
		res.Correct = false
	}
	win := windowed(runs, elapsed)
	if traced {
		res.Metrics = layerMetrics(sp, t, before, after, tr.breakdown(runs, func(c, i int) bool { return runs[c].ok(i) }),
			win.throughput, median(compiles), median(checkpoints), replayed)
	} else {
		m := res.Metrics
		m["throughput_ops_s"] = metric{win.throughput, "1/s"}
		for k := range numClasses {
			lat := flatten(runs, k)
			m[classNames[k]+"_p50_ms"] = metric{win.p50[k], "ms"}
			m[classNames[k]+"_p90_ms"] = metric{win.tail[k], "ms"}
			fmt.Printf("%-12s n=%-6d p50=%.3fms p90=%.3fms (whole run: %.3fms, %.3fms)\n", classNames[k], len(lat), win.p50[k], win.tail[k], percentile(lat, 0.5), percentile(lat, tailQ))
		}
		fmt.Printf("throughput per slice, the first one the warm-up: %.0f ops/s\n", win.rates)
		// ok_frac is 1 on every run that passes: a failed op is also a
		// failed check. It is reported because error_frac, its
		// complement, would always be 0.
		m["ok_frac"] = metric{float64(t.total()-res.Failed) / float64(t.total()), "ratio"}
		m["setup_s"] = metric{median(totals), "s"}
		m["reopen_s"] = metric{reopenS, "s"}
		m["heap_mb"] = metric{float64(heap) / (1 << 20), "MB"}
	}
	hits := after.stats.Store.CacheHits - before.stats.Store.CacheHits
	misses := after.stats.Store.CacheMisses - before.stats.Store.CacheMisses
	fmt.Printf("%s seed=%d ops=%d elapsed=%.2fs reads=%d object_writes=%d spine_writes=%d queries=%d cache hits=%d misses=%d (hit share %.3f) query rows scanned=%d emitted=%d\n",
		sp.name, seed, t.total(), elapsedS, t.attempted[classRead], t.attempted[classObjectWrite], t.attempted[classSpineWrite], t.attempted[classQuery],
		hits, misses, ratio(float64(hits), float64(hits+misses)), t.queries.RowsScanned, t.queries.RowsEmitted)
	fmt.Printf("share of client time per class: %s\n", timeShares(runs))
	fmt.Printf("op lists: %.1f MB of heap; memory obtained from the OS: %.0f MB\n", float64(opsHeap)/(1<<20), float64(after.mem.Sys)/(1<<20))
	return res, &runInfo{before: before, after: after, tally: t, replayed: replayed}, nil
}

// The measured phase is cut into equal time slices. The first, warmup,
// is not reported: in it the caches turn over from the set-up's state and
// each spine-churn client takes its full rebuilds. Throughput and
// percentiles are taken over the other slices' ops together. Medians over
// the slices were tried and were no steadier: the shared machine switched
// between a fast and a slow state every second or two (serve-hot's query
// p50 was 0.7 ms in some slices and 1.05 ms in others of one run), and a
// median picks one state where the pooled figure weighs both.
const (
	windows = 6
	warmup  = 1
)

type windowFigures struct {
	throughput float64
	p50, tail  [numClasses]float64
	rates      [windows]float64 // ops/s per slice, for the log
}

// windowed computes the run's throughput and each class's p50 and tail
// over the reported slices.
func windowed(runs []*clientRun, elapsed time.Duration) windowFigures {
	var out windowFigures
	width := elapsed / windows
	var reported [numClasses][]time.Duration
	for _, r := range runs {
		for k := range numClasses {
			for j, end := range r.ends[k] {
				w := min(int(end/width), windows-1)
				out.rates[w] += 1 / width.Seconds()
				if w >= warmup {
					reported[k] = append(reported[k], r.lat[k][j])
				}
			}
		}
	}
	n := 0
	for k := range numClasses {
		n += len(reported[k])
		out.p50[k] = percentile(reported[k], 0.5)
		out.tail[k] = percentile(reported[k], tailQ)
	}
	out.throughput = float64(n) / (width * (windows - warmup)).Seconds()
	return out
}

// liveHeap is the live heap after a forced GC, in bytes.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// timeShares gives each op class's share of the clients' total time, for
// the log.
func timeShares(runs []*clientRun) string {
	var per [numClasses]time.Duration
	var all time.Duration
	for _, r := range runs {
		for k := range numClasses {
			for _, d := range r.lat[k] {
				per[k] += d
				all += d
			}
		}
	}
	out := ""
	for k := range numClasses {
		out += fmt.Sprintf(" %s %.3f", classNames[k], ratio(float64(per[k]), float64(all)))
	}
	return out[1:]
}

func flatten(runs []*clientRun, class int) []time.Duration {
	var out []time.Duration
	for _, r := range runs {
		out = append(out, r.lat[class]...)
	}
	return out
}
