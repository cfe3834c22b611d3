package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"trustmap"
	"trustmap/wire"
)

// clients is every workload's closed-loop client count: one per core of
// the 2-core reference machine. It is a constant, not runtime.NumCPU, so
// the op lists, the WAL and the final state are the same on every machine.
const clients = 2

// domain is the value domain of every belief.
var domain = []string{"v0", "v1", "v2", "v3"}

// Op classes. Every workload issues all four, so every end-to-end metric
// has samples on every workload.
const (
	classRead        = iota // GET /v1/objects/{key}/resolution for readUsers users
	classObjectWrite        // PUT /v1/objects/{key}/beliefs/{user} on an existing object
	classSpineWrite         // POST /v1/mutate with one trust-network op
	classQuery              // POST /v1/query
	numClasses
)

var classNames = [numClasses]string{"read", "object_write", "spine_write", "query"}

// readUsers is how many users one read resolves the object for.
const readUsers = 4

// spec is one workload: the stack it builds, its sizes, and its op mix.
type spec struct {
	name    string
	clients int // closed-loop clients, each on its own connection
	users   int // trust-network users
	roots   int // users/roots users are roots holding a default belief; object beliefs come from these users
	object  int // stored objects
	shards  int // 0 = one store behind shard.SingleStore; N = a Router over N stores
	mode    trustmap.DurabilityMode

	// mix is each op class's share of the ops, in parts per 10000.
	mix [numClasses]int
	// zipf skews read keys (exponent > 1); 0 reads keys uniformly.
	zipf float64
	// spineMix is each spine-op kind's share of the spine ops, in parts
	// per 10000, apart from the third-parent ops.
	spineMix [numSpineKinds]int
	// thirds is how many of each client's spine ops add or remove a third
	// parent, and so take the full rebuild path.
	thirds int
	// scanQueries selects the scatter aggregate query (conflicted rows of
	// a user set, grouped by user) instead of the selective key lookup,
	// and issues each one right after one of the client's spine writes.
	scanQueries bool
	// scanUsers is the user-set size of a scan query.
	scanUsers int
	// rate is the nominal ops/s of the reference machine: a run issues
	// rate*seconds ops in total, so the op count, the WAL and the final
	// state depend only on (workload, seed, seconds).
	rate float64
}

// Spine-op kinds: which engine path a trust-network write takes.
const (
	spineReweight = iota // set-trust that reorders a 2-parent truster's parents: incremental
	spineToggle          // add or remove a truster's second parent: incremental
	spineThird           // add or remove a third parent: full rebuild (cascade)
	spineDefault         // change a root's default belief: value-only
	numSpineKinds
)

var workloads = []spec{
	{
		name:     "serve-hot",
		clients:  clients,
		users:    5000,
		roots:    10,
		object:   8000,
		mode:     trustmap.DurabilityBatch,
		mix:      [numClasses]int{classRead: 8980, classObjectWrite: 800, classSpineWrite: 20, classQuery: 200},
		zipf:     1.4,
		spineMix: [numSpineKinds]int{spineReweight: 7000, spineToggle: 2000, spineDefault: 1000},
		rate:     18000,
	},
	{
		name:     "spine-churn",
		clients:  clients,
		users:    10000,
		roots:    10,
		object:   1500,
		mode:     trustmap.DurabilityBatch,
		mix:      [numClasses]int{classRead: 5800, classObjectWrite: 1500, classSpineWrite: 2500, classQuery: 200},
		spineMix: [numSpineKinds]int{spineReweight: 6500, spineToggle: 2500, spineDefault: 1000},
		thirds:   1,
		rate:     1300,
	},
	{
		name:        "cluster-scan",
		clients:     clients,
		users:       5000,
		roots:       80,
		object:      1500,
		shards:      4,
		mode:        trustmap.DurabilityOff,
		mix:         [numClasses]int{classRead: 5500, classObjectWrite: 2000, classSpineWrite: 500, classQuery: 2000},
		spineMix:    [numSpineKinds]int{spineReweight: 7000, spineToggle: 2000, spineDefault: 1000},
		scanQueries: true,
		scanUsers:   8,
		rate:        800,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// --- deterministic randomness --------------------------------------------

// rng is splitmix64: tiny, allocation-free, and seedable from a hash of
// (seed, stream, index), so op i of client c is a pure function of
// (seed, c, i) and generation needs no shared state.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = mix64(h)
	}
	return &rng{s: h}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Stream identifiers keep the network, the objects and each client's ops
// on independent sequences.
const (
	streamNetwork = iota + 1
	streamObjects
	streamOps
	streamReadKeys
	streamCheck
)

// --- the initial state ---------------------------------------------------

func userName(i int) string   { return fmt.Sprintf("u%05d", i) }
func objectName(i int) string { return fmt.Sprintf("o%05d", i) }

// edge is one trust mapping: truster trusts parent with priority.
type edge struct {
	parent   int
	priority int
}

// world is the initial state a seed generates: the trust network, grown
// like trustd's demo community — one user in spec.roots, user 0 and a
// seeded draw of the rest, are roots that hold a default belief and trust
// nobody; every other user
// trusts one or two earlier users with priorities from three tiers, so
// ties create conflicts — and the stored objects (beliefs of one to four
// roots each).
type world struct {
	sp       spec
	parents  [][]edge         // per user, in insertion order
	roots    []int            // the root users, ascending
	defaults map[int]string   // per root
	objects  []map[int]string // per object: root -> value
	zipfCDF  []float64        // read-key rank CDF (nil = uniform)
	zipfPerm []int            // rank -> object index
}

func newWorld(sp spec, seed uint64) *world {
	w := &world{sp: sp, parents: make([][]edge, sp.users), defaults: map[int]string{}}
	r := newRNG(seed, streamNetwork)
	// Exactly users/roots roots, user 0 and a seeded draw of the rest: a
	// root count that varied with the seed would move every resolution's
	// cost with it.
	isRoot := map[int]bool{0: true}
	for len(isRoot) < sp.users/sp.roots {
		isRoot[1+r.intn(sp.users-1)] = true
	}
	for x := 0; x < sp.users; x++ {
		if isRoot[x] {
			w.roots = append(w.roots, x)
			w.defaults[x] = domain[r.intn(len(domain))]
			continue
		}
		first := r.intn(x)
		w.parents[x] = []edge{{parent: first, priority: 1 + r.intn(3)}}
		if r.intn(2) == 0 {
			second := r.intn(x)
			if second != first {
				w.parents[x] = append(w.parents[x], edge{parent: second, priority: 1 + r.intn(3)})
			}
		}
	}
	r = newRNG(seed, streamObjects)
	w.objects = make([]map[int]string, sp.object)
	for o := range w.objects {
		k := 1 + r.intn(4)
		m := make(map[int]string, k)
		for len(m) < k {
			m[w.roots[r.intn(len(w.roots))]] = domain[r.intn(len(domain))]
		}
		w.objects[o] = m
	}
	if sp.zipf > 0 {
		w.zipfCDF = make([]float64, sp.object)
		sum := 0.0
		for i := range w.zipfCDF {
			sum += 1 / math.Pow(float64(i+1), sp.zipf)
			w.zipfCDF[i] = sum
		}
		for i := range w.zipfCDF {
			w.zipfCDF[i] /= sum
		}
		// Hot keys are spread over the key space (and so over owners and
		// shards) by a seeded permutation.
		r = newRNG(seed, streamReadKeys)
		w.zipfPerm = make([]int, sp.object)
		for i := range w.zipfPerm {
			w.zipfPerm[i] = i
		}
		for i := len(w.zipfPerm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			w.zipfPerm[i], w.zipfPerm[j] = w.zipfPerm[j], w.zipfPerm[i]
		}
	}
	return w
}

// spineOps returns the initial trust network as one mutate batch: every
// edge, then every root default.
func (w *world) spineOps() []wire.Op {
	var ops []wire.Op
	for x, ps := range w.parents {
		for _, e := range ps {
			ops = append(ops, wire.Op{Op: wire.OpSetTrust, Truster: userName(x), Trusted: userName(e.parent), Priority: e.priority})
		}
	}
	for _, r := range w.roots {
		ops = append(ops, wire.Op{Op: wire.OpSetBelief, User: userName(r), Value: w.defaults[r]})
	}
	return ops
}

// objectBeliefs returns object o's initial beliefs keyed by user name.
func (w *world) objectBeliefs(o int) map[string]string {
	m := make(map[string]string, len(w.objects[o]))
	for r, v := range w.objects[o] {
		m[userName(r)] = v
	}
	return m
}

// readKey draws the object a read targets.
func (w *world) readKey(r *rng) int {
	if w.zipfCDF == nil {
		return r.intn(w.sp.object)
	}
	u := r.float()
	rank := sort.SearchFloat64s(w.zipfCDF, u)
	if rank >= len(w.zipfCDF) {
		rank = len(w.zipfCDF) - 1
	}
	return w.zipfPerm[rank]
}

// --- per-client op lists -------------------------------------------------

// op is one pre-drawn request.
type op struct {
	class  int
	object string
	users  []string // read: who the resolution is for; query: the user set
	user   string   // object write: whose belief
	value  string   // object write: the new value
	spine  wire.Op  // spine write: the one trust-network op
	kind   int      // spine write: which spine-op kind it is
	query  wire.Query
}

// shallowFrom keeps spine writes off the first users/shallowFrom users.
// A user's cone — everyone who trusts it, directly or not — grows like
// users/x in a network grown by attaching to earlier users, and the cost
// of an incremental Apply grows with the cone: on spine-churn a reweight
// in the first tenth cost up to 335 ms against a median of 1.6 ms. A few
// such draws decided a run's spine-write tail and its reopen time, so the
// seed, not the code, set those figures. Past the first tenth the cost is
// flat.
const shallowFrom = 10

// owns reports whether client c owns user or object index i: client c
// writes only to trusters, roots and objects with i % clients == c, so the
// clients' write keyspaces are disjoint and the final state does not
// depend on how their requests interleave.
func (w *world) owns(c, i int) bool { return i%w.sp.clients == c }

// clientGen draws one client's op list. It tracks the client's own
// keyspace (the parents of its trusters) so that every drawn op is valid
// when the client runs its list in order; no other client writes that
// keyspace, so op i is a pure function of (seed, client, i).
type clientGen struct {
	w       *world
	c       int
	seed    uint64
	parents map[int][]edge // the client's trusters whose parents changed
	third   int            // the truster currently holding a third parent, or -1
	classes []int          // the class of each op, dealt with exact counts
	kinds   []int          // the kind of each spine op, dealt likewise
	spines  int            // spine ops drawn so far
	owned   []int          // the client's trusters from users/shallowFrom on
	roots   []int          // the client's roots
	objs    []int          // the client's objects
}

func newClientGen(w *world, seed uint64, c, n int) *clientGen {
	g := &clientGen{w: w, c: c, seed: seed, parents: map[int][]edge{}, third: -1}
	g.classes = deal(newRNG(seed, streamOps, uint64(c)), n, w.sp.mix[:])
	if w.sp.scanQueries {
		g.classes = queryAfterSpine(g.classes)
	}
	spines := 0
	for _, k := range g.classes {
		if k == classSpineWrite {
			spines++
		}
	}
	// Third-parent ops come first. The full rebuild they take holds the
	// store's write lock for a few hundred milliseconds; drawn at a seeded
	// position, it stalled a different time slice on every seed, while
	// first it falls in the unreported warm-up slice.
	thirds := min(w.sp.thirds, spines)
	g.kinds = slices.Repeat([]int{spineThird}, thirds)
	g.kinds = append(g.kinds, deal(newRNG(seed, streamOps, uint64(c), 1), spines-thirds, w.sp.spineMix[:])...)
	for x := w.sp.users / shallowFrom; x < w.sp.users; x++ {
		if w.owns(c, x) && len(w.parents[x]) > 0 {
			g.owned = append(g.owned, x)
		}
	}
	for _, r := range w.roots {
		if w.owns(c, r) {
			g.roots = append(g.roots, r)
		}
	}
	for o := 0; o < w.sp.object; o++ {
		if w.owns(c, o) {
			g.objs = append(g.objs, o)
		}
	}
	return g
}

func (g *clientGen) parentsOf(x int) []edge {
	if ps, ok := g.parents[x]; ok {
		return ps
	}
	return g.w.parents[x]
}

// queryAfterSpine moves the queries to just after the client's own spine
// writes, spread evenly over them. A spine write invalidates every cached
// resolution, so the first scan after one resolves every object afresh
// and the scans behind it find part of the cache warm. Placed this way,
// the number of scans of each kind does not depend on how the two clients
// happened to interleave.
func queryAfterSpine(classes []int) []int {
	queries, spines := 0, 0
	for _, k := range classes {
		switch k {
		case classQuery:
			queries++
		case classSpineWrite:
			spines++
		}
	}
	out := make([]int, 0, len(classes))
	j := 0
	for _, k := range classes {
		if k == classQuery {
			continue
		}
		out = append(out, k)
		if k == classSpineWrite {
			// Spine write j takes the queries that bring the count so far
			// to (j+1)*queries/spines.
			for n := (j+1)*queries/spines - j*queries/spines; n > 0; n-- {
				out = append(out, classQuery)
			}
			j++
		}
	}
	if spines == 0 {
		for ; queries > 0; queries-- {
			out = append(out, classQuery)
		}
	}
	return out
}

// deal returns n draws from shares (parts per 10000) with exact counts — each share of n
// rounded by largest remainder — in a seeded order. Exact counts keep the
// number of ops of each class and kind, and so the run's cost, the same
// for every seed.
func deal(r *rng, n int, shares []int) []int {
	counts := make([]int, len(shares))
	rem := make([]int, len(shares))
	left := n
	for k, p := range shares {
		counts[k] = n * p / 10000
		rem[k] = n * p % 10000
		left -= counts[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			out = append(out, k)
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// draw returns op i. Ops must be drawn in order 0, 1, 2, ...
func (g *clientGen) draw(i int) op {
	sp := g.w.sp
	r := newRNG(g.seed, streamOps, uint64(g.c), uint64(i), 2)
	switch class := g.classes[i]; class {
	case classRead:
		o := op{class: class, object: objectName(g.w.readKey(r)), users: make([]string, readUsers)}
		for j := range o.users {
			o.users[j] = userName(r.intn(sp.users))
		}
		return o
	case classObjectWrite:
		obj := g.objs[r.intn(len(g.objs))]
		return op{class: class, object: objectName(obj), user: userName(g.w.roots[r.intn(len(g.w.roots))]), value: domain[r.intn(len(domain))]}
	case classQuery:
		return g.drawQuery(r)
	default:
		return g.drawSpine(r)
	}
}

func (g *clientGen) drawQuery(r *rng) op {
	sp := g.w.sp
	o := op{class: classQuery}
	if sp.scanQueries {
		users := make([]any, sp.scanUsers)
		for j := range users {
			users[j] = userName(r.intn(sp.users))
		}
		o.query = wire.Query{
			Where: []wire.Predicate{
				{Col: "conflicted", Op: wire.PredEq, Value: true},
				{Col: "user", Op: wire.PredIn, Values: users},
			},
			GroupBy: []string{"user"},
			Aggs:    []wire.Aggregate{{Fn: wire.AggCount}},
		}
		return o
	}
	users := make([]any, readUsers)
	for j := range users {
		users[j] = userName(r.intn(sp.users))
	}
	o.query = wire.Query{Where: []wire.Predicate{
		{Col: "object", Op: wire.PredEq, Value: objectName(r.intn(sp.object))},
		{Col: "user", Op: wire.PredIn, Values: users},
	}}
	return o
}

func (g *clientGen) drawSpine(r *rng) op {
	kind := g.kinds[g.spines]
	g.spines++
	return g.drawSpineKind(r, kind)
}

func (g *clientGen) drawSpineKind(r *rng, kind int) op {
	o := op{class: classSpineWrite, kind: kind}
	switch kind {
	case spineDefault:
		root := g.roots[r.intn(len(g.roots))]
		o.spine = wire.Op{Op: wire.OpSetBelief, User: userName(root), Value: domain[r.intn(len(domain))]}
		return o
	case spineThird:
		if g.third >= 0 {
			// Take the third parent away again: the truster is back to
			// two parents and the next third-parent op picks afresh.
			x := g.third
			ps := g.parentsOf(x)
			last := ps[len(ps)-1]
			g.parents[x] = ps[: len(ps)-1 : len(ps)-1]
			g.third = -1
			o.spine = wire.Op{Op: wire.OpRemoveTrust, Truster: userName(x), Trusted: userName(last.parent)}
			return o
		}
		x := g.truster(r, 2)
		if x < 0 {
			break
		}
		o.spine = g.addParent(r, x)
		g.third = x
		return o
	case spineToggle:
		x := g.truster(r, 0)
		ps := g.parentsOf(x)
		if len(ps) == 1 {
			o.spine = g.addParent(r, x)
			return o
		}
		// Drop the second parent; the first keeps every user reachable
		// from a root.
		g.parents[x] = []edge{ps[0]}
		o.spine = wire.Op{Op: wire.OpRemoveTrust, Truster: userName(x), Trusted: userName(ps[1].parent)}
		return o
	}
	// Reweight one edge of a two-parent truster so that the order of its
	// parents changes (a tie becomes a preference, a preference flips or
	// ties): the binarized priorities change, so the write always takes
	// the incremental path rather than leaving the plan untouched.
	o.kind = spineReweight
	x := g.truster(r, 2)
	if x < 0 {
		return g.drawSpineKind(r, spineToggle)
	}
	ps := append([]edge(nil), g.parentsOf(x)...)
	j := r.intn(2)
	cur, other := ps[j].priority, ps[1-j].priority
	var cands []int
	for v := 1; v <= 3; v++ {
		if cmp.Compare(v, other) != cmp.Compare(cur, other) {
			cands = append(cands, v)
		}
	}
	ps[j].priority = cands[r.intn(len(cands))]
	g.parents[x] = ps
	o.spine = wire.Op{Op: wire.OpSetTrust, Truster: userName(x), Trusted: userName(ps[j].parent), Priority: ps[j].priority}
	return o
}

// truster draws one of the client's trusters with at most two parents
// (never the one holding a third parent); want > 0 asks for exactly that
// many parents, trying a bounded number of draws and answering -1 if
// none is found.
func (g *clientGen) truster(r *rng, want int) int {
	for tries := 0; tries < 64; tries++ {
		x := g.owned[r.intn(len(g.owned))]
		if x == g.third {
			continue
		}
		n := len(g.parentsOf(x))
		if (want == 0 && n <= 2) || n == want {
			return x
		}
	}
	if want == 0 {
		panic("trustbench: no truster with at most two parents")
	}
	return -1
}

// addParent adds a fresh parent to truster x.
func (g *clientGen) addParent(r *rng, x int) wire.Op {
	ps := g.parentsOf(x)
	for {
		p := r.intn(g.w.sp.users)
		if p == x || hasParent(ps, p) {
			continue
		}
		e := edge{parent: p, priority: 1 + r.intn(3)}
		g.parents[x] = append(append([]edge(nil), ps...), e)
		return wire.Op{Op: wire.OpAddTrust, Truster: userName(x), Trusted: userName(p), Priority: e.priority}
	}
}

func hasParent(ps []edge, p int) bool {
	for _, e := range ps {
		if e.parent == p {
			return true
		}
	}
	return false
}

// drawOps pre-draws n ops for every client.
func drawOps(w *world, seed uint64, n int) [][]op {
	out := make([][]op, w.sp.clients)
	for c := range out {
		g := newClientGen(w, seed, c, n)
		out[c] = make([]op, n)
		for i := range out[c] {
			out[c][i] = g.draw(i)
		}
	}
	return out
}
