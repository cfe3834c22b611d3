package main

import (
	"fmt"
	"runtime"

	"trustmap"
	"trustmap/wire"
)

// snap is the public counters at one instant: the server's /v1/stats and
// the Go runtime's memory statistics.
type snap struct {
	stats wire.StatsResponse
	mem   runtime.MemStats
}

// tally counts what the clients attempted and what succeeded.
type tally struct {
	attempted [numClasses]int
	userBytes int
	queries   wire.QueryStats
}

func tallyRuns(ops [][]op, runs []*clientRun) tally {
	var t tally
	for c, run := range runs {
		for i := 0; i < run.done; i++ {
			t.attempted[ops[c][i].class]++
		}
		t.userBytes += run.userBytes
		t.queries.RowsScanned += run.queries.RowsScanned
		t.queries.RowsEmitted += run.queries.RowsEmitted
		t.queries.KeyLookups += run.queries.KeyLookups
		t.queries.ShardPartials += run.queries.ShardPartials
	}
	return t
}

func (t tally) total() int {
	n := 0
	for _, a := range t.attempted {
		n += a
	}
	return n
}

func (t tally) writes() int { return t.attempted[classObjectWrite] + t.attempted[classSpineWrite] }

// conservation checks the counter ledger against what the clients did:
// every request passed its admission gate exactly once and none queued or
// shed; the router's routed ops equal the sum of its per-shard object ops
// and the object writes sent; its spine ops equal the spine writes; and
// the WAL fsyncs match the flush policy: one per append under always, at
// most one per 64 appends per store under batch, none under off.
func conservation(sp spec, t tally, before, after snap) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	a0, a1 := before.stats.Admission, after.stats.Admission
	reads := uint64(t.attempted[classRead] + t.attempted[classQuery])
	muts := uint64(t.writes())
	check(a1.Reads.Admitted-a0.Reads.Admitted == reads, "read gate admitted %d, clients sent %d reads and queries", a1.Reads.Admitted-a0.Reads.Admitted, reads)
	check(a1.Mutations.Admitted-a0.Mutations.Admitted == muts, "mutation gate admitted %d, clients sent %d writes", a1.Mutations.Admitted-a0.Mutations.Admitted, muts)
	check(a1.Reads.Shed == a0.Reads.Shed && a1.Mutations.Shed == a0.Mutations.Shed, "admission shed requests")
	check(a1.Reads.Queued == a0.Reads.Queued && a1.Mutations.Queued == a0.Mutations.Queued, "admission queued requests")
	check(a1.DeadlineExceeded == a0.DeadlineExceeded, "requests exceeded their deadline")

	if sp.shards > 0 {
		c0, c1 := before.stats.Cluster, after.stats.Cluster
		var perShard uint64
		for i := range c1.PerShard {
			perShard += c1.PerShard[i].ObjectOps - c0.PerShard[i].ObjectOps
		}
		routed := c1.RoutedOps - c0.RoutedOps
		check(routed == perShard, "router routed %d ops, shards counted %d", routed, perShard)
		check(routed == uint64(t.attempted[classObjectWrite]), "router routed %d ops, clients sent %d object writes", routed, t.attempted[classObjectWrite])
		spine := c1.SpineOps - c0.SpineOps
		check(spine == uint64(t.attempted[classSpineWrite]), "router broadcast %d spine batches, clients sent %d spine writes", spine, t.attempted[classSpineWrite])
	}

	d0, d1 := before.stats.Durability, after.stats.Durability
	appends, syncs := d1.WALAppends-d0.WALAppends, d1.WALSyncs-d0.WALSyncs
	switch sp.mode {
	case trustmap.DurabilityAlways:
		check(syncs == appends, "always policy: %d WAL appends but %d fsyncs", appends, syncs)
	case trustmap.DurabilityBatch:
		// One group-commit fsync per 64 appends on each store.
		most := appends/64 + uint64(max(sp.shards, 1))
		check(syncs <= most, "batch policy: %d fsyncs for %d WAL appends", syncs, appends)
	case trustmap.DurabilityOff:
		check(syncs == 0, "off policy: %d fsyncs on the write path", syncs)
	}
	check(appends >= muts, "%d writes logged only %d WAL appends", muts, appends)
	return bad
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer ledger of a traced run.
func layerMetrics(sp spec, t tally, before, after snap, self [numClasses]selfTimes, throughput float64, setupCompile, setupCheckpoint float64, replayedOps uint64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	s0, s1 := before.stats, after.stats
	shards := float64(max(sp.shards, 1))
	spine := float64(t.attempted[classSpineWrite])
	writes := float64(t.writes())
	ops := float64(t.total())

	// Taken like the untraced throughput_ops_s, so the two give the
	// tracing overhead.
	put("trace.throughput_ops_s", throughput, "1/s")

	// Self times: per class and overall, mean microseconds per op.
	var all selfTimes
	var callTotal float64
	for _, st := range self {
		callTotal += st.call * float64(st.n)
	}
	for k, st := range self {
		name := classNames[k]
		put(name+".call_us", st.call, "us")
		put(name+".client_self_us", st.client, "us")
		put(name+".net_self_us", st.net, "us")
		put(name+".httpd_self_us", st.httpd, "us")
		put(name+".backend_us", st.backend, "us")
		put(name+".remainder_us", st.remainder, "us")
		put(name+".time_share", ratio(st.call*float64(st.n), callTotal), "ratio")
		n := float64(st.n)
		all.n += st.n
		all.client += st.client * n
		all.net += st.net * n
		all.httpd += st.httpd * n
	}
	put("client.self_us", ratio(all.client, float64(all.n)), "us")
	put("net.self_us", ratio(all.net, float64(all.n)), "us")
	put("httpd.self_us", ratio(all.httpd, float64(all.n)), "us")

	// httpd and admission.
	a0, a1 := s0.Admission, s1.Admission
	put("admission.admitted", float64(a1.Reads.Admitted-a0.Reads.Admitted+a1.Mutations.Admitted-a0.Mutations.Admitted), "count")
	put("admission.queued", float64(a1.Reads.Queued-a0.Reads.Queued+a1.Mutations.Queued-a0.Mutations.Queued), "count")
	put("admission.shed", float64(a1.Reads.Shed-a0.Reads.Shed+a1.Mutations.Shed-a0.Mutations.Shed), "count")

	// shard: pass-through on a single store.
	put("backend.mutate_us", self[classSpineWrite].backend, "us")
	var spineOps, routed, scatter, imbalance float64 = 0, 0, 0, 1
	if c0, c1 := s0.Cluster, s1.Cluster; c1 != nil && c0 != nil {
		spineOps = float64(c1.SpineOps - c0.SpineOps)
		routed = float64(c1.RoutedOps - c0.RoutedOps)
		scatter = float64(c1.ScatterReads - c0.ScatterReads)
		var sum, hi float64
		for i := range c1.PerShard {
			d := float64(c1.PerShard[i].ObjectOps - c0.PerShard[i].ObjectOps)
			sum += d
			hi = max(hi, d)
		}
		imbalance = ratio(hi, sum/float64(len(c1.PerShard)))
	}
	put("shard.spine_ops", spineOps, "count")
	put("shard.routed_ops", routed, "count")
	put("shard.scatter_reads", scatter, "count")
	put("shard.owner_imbalance", imbalance, "ratio")

	// query.
	q := float64(t.attempted[classQuery])
	put("backend.query_us", self[classQuery].backend, "us")
	put("query.rows_scanned_per_emitted", ratio(float64(s1.Query.RowsScanned-s0.Query.RowsScanned), float64(s1.Query.RowsEmitted-s0.Query.RowsEmitted)), "ratio")
	put("query.rows_scanned", float64(s1.Query.RowsScanned-s0.Query.RowsScanned), "count")
	put("query.key_lookups_per_query", ratio(float64(t.queries.KeyLookups), q), "count")
	put("query.shard_partials", ratio(float64(t.queries.ShardPartials), q), "count")

	// Store.
	hits := float64(s1.Store.CacheHits - s0.Store.CacheHits)
	misses := float64(s1.Store.CacheMisses - s0.Store.CacheMisses)
	put("store.cache_hits", hits, "count")
	put("store.cache_misses", misses, "count")
	put("store.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("store.reads", float64(t.attempted[classRead]), "count")
	rs := self[classRead]
	put("backend.resolve_object.hit_us", rs.hitUS, "us")
	put("backend.resolve_object.miss_us", rs.missUS, "us")
	put("backend.resolve_object.attributed_frac", ratio(float64(rs.hitN+rs.missN), float64(rs.n)), "ratio")
	put("store.epochs_reclaimed_per_write", ratio(float64(s1.Session.EpochsReclaimed-s0.Session.EpochsReclaimed), writes), "count")

	// engine: the path each spine write took, per shard it reached.
	perSpine := func(d int) float64 { return ratio(float64(d)/shards, spine) }
	put("store.rebuilds_per_spine_write", perSpine(s1.Session.Compiles-s0.Session.Compiles), "count")
	put("store.incremental_applies_per_spine_write", perSpine(s1.Session.IncrementalApplies-s0.Session.IncrementalApplies), "count")
	put("store.value_only_per_spine_write", perSpine(s1.Session.ValueOnlyUpdates-s0.Session.ValueOnlyUpdates), "count")
	put("store.full_recompiles_per_spine_write", perSpine(s1.Session.FullRecompiles-s0.Session.FullRecompiles), "count")
	put("engine.distinct_supports", float64(s1.Engine.DistinctSupports), "count")
	put("setup.compile_s", setupCompile, "s")

	// durability.
	d0, d1 := s0.Durability, s1.Durability
	walBytes := float64(d1.WALBytes - d0.WALBytes)
	put("wal.fsyncs_per_write", ratio(float64(d1.WALSyncs-d0.WALSyncs), writes), "count")
	put("wal.bytes_per_write", ratio(walBytes, writes), "B")
	put("wal.bytes_per_user_byte", ratio(walBytes, float64(t.userBytes)), "ratio")
	put("setup.checkpoint_s", setupCheckpoint, "s")
	put("reopen.replayed_ops", float64(replayedOps), "count")

	// runtime (client and server share the process).
	m0, m1 := before.mem, after.mem
	put("go.alloc_bytes_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B")
	put("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	put("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	return m
}
