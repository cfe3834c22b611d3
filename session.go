package trustmap

// session keeps a compiled bulk-resolution artifact live across network
// mutations: the compile -> resolve many -> mutate -> incremental re-plan
// lifecycle the paper's community-database setting implies (Sections 2.5
// and 4). BulkResolve/bulkResolveWith recompile the engine artifact on
// every call; a session compiles once and then folds each mutation into
// the artifact through the engine's delta path (engine.Apply), paying for
// the dirty region instead of the whole network.
//
// The session owns the binarized twin of the facade network and keeps it
// current by translating facade mutations into binarized ones. Mutations
// that would restructure the binarization (a user crossing the two-parent
// threshold, belief changes on heavily-mapped users) mark the session for
// a full rebuild, which the next publication performs transparently.
//
// The session is the only owner of its facade network (Network.NewStore
// hands it a private copy), so every mutation arrives through it.
//
// # Concurrency
//
// A session is safe for concurrent use: any number of goroutines may
// resolve while others mutate. Serving is epoch-based (internal/serve):
// every publication — the initial compile and each mutation — freezes an
// immutable snapshot (the compiled artifact plus the name/root tables a
// resolve needs) and swaps it in with one atomic pointer store. Readers
// pin the current epoch for the duration of one resolve and never take
// the writer lock, so a read observes exactly one published generation —
// never a torn mix of two — and never blocks on a writer. Writers are
// serialized by a mutex; each mutation method publishes a new epoch
// before returning, and Update batches several mutations into a single
// publication. Retired epochs stay valid for the readers still pinning
// them (engine.Apply builds successors copy-on-write) and are reclaimed
// once their reader count drains.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"trustmap/internal/engine"
	"trustmap/internal/serve"
	"trustmap/internal/tn"
)

// SessionStats counts what the session's maintenance has done, as of the
// epoch the stats were read from.
type SessionStats struct {
	Epoch              uint64 // generation of the published snapshot serving reads
	Compiles           int    // full compiles, including the initial one
	IncrementalApplies int    // mutations folded in through the delta path
	ValueOnlyUpdates   int    // belief-value changes, free for the plan
	FullRecompiles     int    // delta applications that hit the threshold
	EpochsReclaimed    uint64 // retired epochs whose reader count drained
	LastApply          engine.ApplyStats
}

// sessionSnap is one published epoch's immutable snapshot: the compiled
// artifact plus every table a resolve reads. Writers build the next
// snapshot off to the side under the session mutex and publish it with
// one pointer swap; readers must treat every field as frozen.
type sessionSnap struct {
	comp     *engine.CompiledNetwork
	view     *tn.View         // frozen name index of the facade network
	binIDs   []int            // original user ID -> binarized node (len-capped, append-only)
	rootNode map[int]int      // original root ID -> binarized belief carrier
	defaults map[int]tn.Value // network-level default belief per root, where stated
	version  uint64           // facade network version this snapshot reflects
	stats    SessionStats     // maintenance counters at publication
	eng      *engLazy         // shared between snapshots of one artifact generation
}

// engLazy derives the engine summary of one artifact generation lazily,
// on first EngineStats call — off the publish hot path. Only the
// binarized user/mapping counts are captured eagerly (O(1)): they are
// the one thing engine.Stats reads from the live network, which keeps
// mutating after publication. Snapshots sharing an artifact (value-only
// updates) share the holder, so the derivation runs once per generation.
type engLazy struct {
	comp        *engine.CompiledNetwork
	binUsers    int
	binMappings int
	once        sync.Once
	st          engine.Stats
}

// engineStats derives (once) and returns the frozen artifact summary.
func (snap *sessionSnap) engineStats() engine.Stats {
	e := snap.eng
	e.once.Do(func() {
		e.st = e.comp.StatsFrozen(e.binUsers, e.binMappings)
	})
	return e.st
}

// session serves resolutions from a compiled artifact that is maintained
// incrementally across mutations and published in epochs. Create with
// Network.newSession. Safe for concurrent use: resolves are lock-free
// against the current epoch, mutations are serialized internally.
type session struct {
	workers  int
	maxDirty float64
	noDedup  bool

	// lsnFn, when set (by the durable Store), supplies the WAL log
	// sequence number each publication is tagged with: a lower bound on
	// the log position the published epoch reflects. Must be safe to call
	// without locks (an atomic load).
	lsnFn func() uint64

	pub *serve.Publisher[*sessionSnap]

	// Writer-side state, guarded by mu. Readers never touch it: everything
	// a resolve needs is frozen into the published sessionSnap.
	mu         sync.Mutex
	net        *Network
	bin        *tn.Network // binarized twin, journaling enabled
	comp       *engine.CompiledNetwork
	binIDs     []int            // original user ID -> binarized node ID
	rootNode   map[int]int      // original root ID -> binarized node carrying its belief
	extraRoots []int            // original IDs of extra roots, in registration order
	extraSet   map[int]struct{} // membership index over extraRoots
	// pubStale flips when a publication failed (a rebuild error after a
	// mutation landed): the current epoch no longer reflects the session
	// state and bool-returning mutation methods had no way to say so.
	// Readers observing it retry the publication and surface the error —
	// mutation failures are never silently absorbed into stale serving.
	pubStale    atomic.Bool
	needRebuild bool
	rootsDirty  bool // rootNode or a default belief changed since the last snapshot
	stats       SessionStats
	lastSnap    *sessionSnap // previous publication, for O(1) reuse of unchanged tables
}

// newSession validates and compiles the network once and returns a handle
// that keeps the compiled artifact live across mutations. The session
// takes n over: nothing else may use n afterwards.
func (n *Network) newSession(c storeConfig) (*session, error) {
	s := &session{
		net:      n,
		workers:  c.workers,
		maxDirty: c.maxDirty,
		noDedup:  c.noDedup,
	}
	s.extraSet = make(map[int]struct{}, len(c.extraRoots))
	for _, name := range c.extraRoots {
		s.addExtraRootLocked(n.inner.AddUser(name))
	}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	s.pub = serve.NewPublisher(s.snapLocked(), nil)
	return s, nil
}

// rebuild re-binarizes and recompiles from scratch: the fallback for
// structural mutations the incremental translation does not cover.
// Callers hold mu (or, in newSession, exclusive ownership).
func (s *session) rebuild() error {
	if err := s.net.Validate(); err != nil {
		return err
	}
	shape := s.net.inner.Clone()
	for _, x := range s.extraRoots {
		if !shape.HasExplicit(x) {
			shape.SetExplicit(x, "seed")
		}
	}
	bin := tn.Binarize(shape)
	bin.EnableJournal()
	comp, err := engine.Compile(bin)
	if err != nil {
		return err
	}
	s.bin = bin
	s.comp = comp
	s.binIDs = make([]int, s.net.inner.NumUsers())
	for i := range s.binIDs {
		s.binIDs[i] = i // fresh binarization keeps original IDs as a prefix
	}
	s.rootNode = make(map[int]int)
	for x := 0; x < shape.NumUsers(); x++ {
		if shape.HasExplicit(x) {
			s.rootNode[x] = findRootFor(bin, x)
		}
	}
	s.needRebuild = false
	s.rootsDirty = true
	s.stats.Compiles++
	return nil
}

// snapLocked freezes the writer state into an immutable snapshot. Tables
// that cannot have changed since the previous publication are shared with
// it: the name view and binIDs when no user was added (the binIDs backing
// array is append-only below its published length), rootNode and defaults
// while no belief changed (rootsDirty), and the lazy engine-summary
// holder while the artifact pointer is unchanged (value-only updates).
func (s *session) snapLocked() *sessionSnap {
	// Derive the artifact's root supports now, under the writer lock: a
	// freshly compiled artifact derives them lazily by reading the live
	// binarized network, which a reader's first resolve would race.
	s.comp.EnsureSupports()
	prev := s.lastSnap
	snap := &sessionSnap{
		comp:    s.comp,
		view:    s.net.inner.Snapshot(viewOf(prev)),
		version: s.net.inner.Version(),
		stats:   s.stats,
	}
	if prev != nil && prev.eng.comp == s.comp {
		snap.eng = prev.eng // same artifact generation: one derivation serves both
	} else {
		snap.eng = &engLazy{comp: s.comp, binUsers: s.bin.NumUsers(), binMappings: s.bin.NumMappings()}
	}
	if prev != nil && len(prev.binIDs) == len(s.binIDs) && sameBacking(prev.binIDs, s.binIDs) {
		snap.binIDs = prev.binIDs
	} else {
		snap.binIDs = s.binIDs[:len(s.binIDs):len(s.binIDs)]
	}
	// Root tables change only when a belief is granted, revoked, updated,
	// or hoisted — never on trust-edge mutations, the steady serving case.
	// Unchanged tables are shared with the previous snapshot (immutable
	// once published); rootsDirty marks the exceptions.
	if prev != nil && !s.rootsDirty {
		snap.rootNode = prev.rootNode
		snap.defaults = prev.defaults
	} else {
		snap.rootNode = make(map[int]int, len(s.rootNode))
		snap.defaults = make(map[int]tn.Value, len(s.rootNode))
		for x, root := range s.rootNode {
			snap.rootNode[x] = root
			if v := s.net.inner.Explicit(x); v != tn.NoValue {
				snap.defaults[x] = v
			}
		}
		s.rootsDirty = false
	}
	s.lastSnap = snap
	return snap
}

func viewOf(snap *sessionSnap) *tn.View {
	if snap == nil {
		return nil
	}
	return snap.view
}

// sameBacking reports whether two equal-length non-empty int slices share
// their backing array (binIDs sharing is only safe along the same array:
// a rebuild allocates a fresh one).
func sameBacking(a, b []int) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// publishLocked folds pending mutations into the artifact and publishes a
// fresh epoch. A failed fold leaves the previous epoch serving and
// surfaces the error; the session stays marked for rebuild, so a later
// operation retries. No-op publications (nothing changed since the
// current epoch) are skipped.
func (s *session) publishLocked() error {
	if err := s.flushLocked(); err != nil {
		s.pubStale.Store(true) // the epoch lags the session state; readers retry
		return err
	}
	if prev := s.lastSnap; prev == nil || prev.version != s.net.inner.Version() || prev.comp != s.comp {
		s.pub.PublishTagged(s.snapLocked(), s.pubTag())
	}
	s.pubStale.Store(false)
	return nil
}

// pubTag is the tag the next publication carries: the durable store's
// logged LSN, or 0 when the session is not durability-backed.
func (s *session) pubTag() uint64 {
	if s.lsnFn == nil {
		return 0
	}
	return s.lsnFn()
}

// rebase raises the epoch numbering to at least seq and publishes a
// fresh epoch at the new height. The durable store calls it once after
// recovery: replay may publish fewer epochs than the pre-crash run did
// (batching), and clients hold pre-crash epoch numbers as
// read-your-writes bounds, so the post-restart numbering must continue
// — never restart below — the pre-crash one.
func (s *session) rebase(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pub.Rebase(seq)
	s.pub.PublishTagged(s.snapLocked(), s.pubTag())
}

// extraRootNames returns the names of the session's extra roots —
// declared via options or registered by object mentions — in
// registration order. The durable store persists them so a recovered
// plan has the same root set.
func (s *session) extraRootNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.extraRoots))
	for _, x := range s.extraRoots {
		names = append(names, s.net.inner.Name(x))
	}
	return names
}

// Stats returns the session's maintenance counters as of the currently
// published epoch, plus the live epoch-reclamation counter.
func (s *session) Stats() SessionStats {
	e := s.pub.Acquire()
	defer e.Release()
	st := e.Value().stats
	st.Epoch = e.Seq()
	st.EpochsReclaimed = s.pub.Stats().Reclaimed
	return st
}

// EngineStats summarizes the compiled artifact of the currently published
// epoch.
func (s *session) EngineStats() engine.Stats {
	e := s.pub.Acquire()
	defer e.Release()
	return e.Value().engineStats()
}

// EpochStats returns the session counters and the engine summary of ONE
// pinned epoch: unlike calling Stats and EngineStats back to back, the
// two cannot straddle a publication. For monitoring endpoints that key
// both on the epoch number.
func (s *session) EpochStats() (SessionStats, engine.Stats) {
	e := s.pub.Acquire()
	defer e.Release()
	snap := e.Value()
	st := snap.stats
	st.Epoch = e.Seq()
	st.EpochsReclaimed = s.pub.Stats().Reclaimed
	return st, snap.engineStats()
}

// Epoch returns the sequence number of the currently published epoch. It
// increases by one per publication (every effective mutation, batch, or
// replan).
func (s *session) Epoch() uint64 { return s.pub.Seq() }

// binID maps an original user ID to its binarized node.
func (s *session) binID(x int) int {
	if x < len(s.binIDs) {
		return s.binIDs[x]
	}
	return x
}

// AddTrust states that truster accepts values from trusted with the given
// priority, like Network.AddTrust, and publishes the updated artifact.
// Unlike the facade it rejects self-trust and duplicate mappings
// immediately instead of at the next validation.
func (s *session) AddTrust(truster, trusted string, priority int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.addTrustLocked(truster, trusted, priority); err != nil {
		return err
	}
	return s.publishLocked()
}

func (s *session) addTrustLocked(truster, trusted string, priority int) error {
	if truster == trusted {
		return fmt.Errorf("trustmap: user %q cannot trust itself", truster)
	}
	t := s.net.inner.AddUser(truster)
	z := s.net.inner.AddUser(trusted)
	for _, m := range s.net.inner.In(t) {
		if m.Parent == z {
			return fmt.Errorf("trustmap: mapping %q -> %q already exists; use UpdateTrust", trusted, truster)
		}
	}
	// Pre-mutation shape of the truster decides translatability.
	pre := append([]tn.Mapping(nil), s.net.inner.In(t)...)
	k := len(pre)
	s.net.inner.AddMapping(z, t, priority)
	if s.needRebuild {
		return nil
	}
	s.ensureBinUser(truster, t)
	s.ensureBinUser(trusted, z)
	bt, bz := s.binID(t), s.binID(z)
	root, hasCarrier := s.rootNode[t]
	switch {
	case hasCarrier && root == bt:
		// A root gains its first parent: hoist the belief onto a helper
		// that outranks it, exactly as Binarize does.
		s.hoistBelief(t)
		s.bin.AddMapping(bz, bt, 1)
	case hasCarrier && k == 0:
		// A hoisted carrier is the sole binarized parent (the last real
		// parent was revoked earlier); it keeps outranking real parents.
		s.bin.AddMapping(bz, bt, 1)
	case !hasCarrier && k == 0:
		s.bin.AddMapping(bz, bt, 2)
	case !hasCarrier && k == 1:
		// Two parents now: re-derive the {1,2} (or tied {1,1}) encoding.
		z0, p0 := pre[0].Parent, pre[0].Priority
		bz0 := s.binID(z0)
		switch {
		case p0 == priority:
			s.bin.SetMappingPriority(bz0, bt, 1)
			s.bin.AddMapping(bz, bt, 1)
		case p0 > priority:
			s.bin.AddMapping(bz, bt, 1)
		default:
			s.bin.SetMappingPriority(bz0, bt, 1)
			s.bin.AddMapping(bz, bt, 2)
		}
	default:
		// Three or more binarized parents: cascade territory.
		s.needRebuild = true
	}
	return nil
}

// RemoveTrust revokes truster -> trusted, like Network.RemoveTrust, and
// publishes the updated artifact. It reports whether the mapping existed;
// the error carries a failed publication (which the next operation also
// retries).
func (s *session) RemoveTrust(truster, trusted string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.removeTrustLocked(truster, trusted)
	if !ok {
		return false, nil
	}
	return true, s.publishLocked()
}

func (s *session) removeTrustLocked(truster, trusted string) bool {
	t, z := s.net.inner.UserID(truster), s.net.inner.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	pre := append([]tn.Mapping(nil), s.net.inner.In(t)...)
	k := len(pre)
	if !s.net.inner.RemoveMapping(z, t) {
		return false
	}
	if s.needRebuild {
		return true
	}
	bt := s.binID(t)
	hoisted := 0
	if root, ok := s.rootNode[t]; ok && root != bt {
		hoisted = 1 // a helper carries the belief above the real parents
	}
	if k+hoisted > 2 {
		s.needRebuild = true // the binarization had a cascade
		return true
	}
	s.bin.RemoveMapping(s.binID(z), bt)
	// A surviving sole real parent becomes the preferred edge (priority 2),
	// the encoding Binarize emits for single-parent nodes. With a hoisted
	// belief the helper already holds priority 2 and survivors stay at 1.
	if hoisted == 0 && k == 2 {
		for _, m := range pre {
			if m.Parent != z {
				s.bin.SetMappingPriority(s.binID(m.Parent), bt, 2)
			}
		}
	}
	return true
}

// UpdateTrust changes the priority of truster -> trusted, like
// Network.UpdateTrust, and publishes the updated artifact. It reports
// whether the mapping existed; the error carries a failed publication.
func (s *session) UpdateTrust(truster, trusted string, priority int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.updateTrustLocked(truster, trusted, priority)
	if !ok {
		return false, nil
	}
	return true, s.publishLocked()
}

func (s *session) updateTrustLocked(truster, trusted string, priority int) bool {
	t, z := s.net.inner.UserID(truster), s.net.inner.UserID(trusted)
	if t < 0 || z < 0 {
		return false
	}
	k := len(s.net.inner.In(t))
	if !s.net.inner.SetMappingPriority(z, t, priority) {
		return false
	}
	if s.needRebuild {
		return true
	}
	bt := s.binID(t)
	hoisted := 0
	if root, ok := s.rootNode[t]; ok && root != bt {
		hoisted = 1
	}
	switch {
	case k+hoisted > 2:
		s.needRebuild = true // priorities are encoded in the cascade shape
	case hoisted == 0 && k == 2:
		// Re-derive the two binarized priorities from the new order.
		post := s.net.inner.In(t)
		if post[0].Priority == post[1].Priority {
			s.bin.SetMappingPriority(s.binID(post[0].Parent), bt, 1)
			s.bin.SetMappingPriority(s.binID(post[1].Parent), bt, 1)
		} else {
			s.bin.SetMappingPriority(s.binID(post[0].Parent), bt, 2)
			s.bin.SetMappingPriority(s.binID(post[1].Parent), bt, 1)
		}
		// Else: a sole real parent (with or without a hoisted belief above
		// it) keeps its binarized priority; nothing to do.
	}
	return true
}

// SetBelief states the user's explicit belief, like Network.SetBelief, and
// publishes the updated artifact. A value update on an existing belief is
// free for the plan: the resolution plan is belief-value-independent, so
// the new epoch shares the compiled artifact and only swaps the defaults.
func (s *session) SetBelief(user, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.setBeliefLocked(user, value); err != nil {
		return err
	}
	return s.publishLocked()
}

func (s *session) setBeliefLocked(user, value string) error {
	if value == "" {
		return fmt.Errorf("trustmap: empty value; use RemoveBelief to revoke")
	}
	x := s.net.inner.AddUser(user)
	k := len(s.net.inner.In(x))
	s.net.inner.SetExplicit(x, tn.Value(value))
	s.rootsDirty = true
	if s.needRebuild {
		return nil
	}
	s.ensureBinUser(user, x)
	switch root, hasCarrier := s.rootNode[x]; {
	case hasCarrier:
		// The belief carrier exists already — x itself, its hoisted helper,
		// or an ExtraRoots placeholder. The engine sees a pure value update
		// and keeps the whole plan.
		s.bin.SetExplicit(root, tn.Value(value))
	case k == 0:
		bx := s.binID(x)
		s.bin.SetExplicit(bx, tn.Value(value))
		s.rootNode[x] = bx
	case k == 1:
		s.hoistBelief(x)
	default:
		s.needRebuild = true // three binarized parents: cascade
	}
	return nil
}

// RemoveBelief revokes the user's explicit belief, like
// Network.RemoveBelief, and publishes the updated artifact. Revoking an
// absent belief is a no-op; the error carries a failed publication.
func (s *session) RemoveBelief(user string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeBeliefLocked(user)
	return s.publishLocked()
}

func (s *session) removeBeliefLocked(user string) {
	x := s.net.inner.UserID(user)
	if x < 0 || !s.net.inner.HasExplicit(x) {
		return
	}
	k := len(s.net.inner.In(x))
	s.net.inner.SetExplicit(x, tn.NoValue)
	s.rootsDirty = true
	if s.needRebuild {
		return
	}
	if s.isExtraRoot(x) {
		// The user stays a root for per-object beliefs; only the
		// network-level default disappears. The binarized belief carrier
		// keeps a placeholder, exactly as a fresh rebuild would seed it.
		s.bin.SetExplicit(s.rootNode[x], "seed")
		return
	}
	bx := s.binID(x)
	switch {
	case k == 0:
		s.bin.SetExplicit(bx, tn.NoValue)
		delete(s.rootNode, x)
	case k == 1:
		// Drop the hoisted helper; the sole real parent becomes preferred.
		helper := s.rootNode[x]
		s.bin.SetExplicit(helper, tn.NoValue)
		s.bin.RemoveMapping(helper, bx)
		for _, m := range s.bin.In(bx) {
			s.bin.SetMappingPriority(m.Parent, bx, 2)
		}
		delete(s.rootNode, x)
	default:
		s.needRebuild = true // cascade shape changes
	}
}

// Update applies a batch of mutations and publishes one epoch at the end:
// concurrent readers observe either the whole batch or none of it, and
// the engine folds the batch's journal in one Apply. fn runs under the
// writer lock and mutates through the session's *Locked methods. fn's
// error is returned but does not roll the batch back — mutations applied
// before the error are published (the facade has no transactional undo).
func (s *session) Update(fn func() error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Publish in a defer so a panic in fn still publishes the applied
	// prefix while unwinding: otherwise a recovered panic (net/http
	// recovers handler panics) would leave mutations applied that no epoch
	// reflects, and readers would silently serve the pre-batch snapshot.
	defer func() {
		if perr := s.publishLocked(); err == nil {
			err = perr
		}
	}()
	return fn()
}

// hoistBelief moves x's explicit belief onto a fresh helper root wired
// above x's existing sole parent, mirroring Binarize's step 1: the helper
// takes priority 2 and the real parent priority 1.
func (s *session) hoistBelief(x int) {
	bx := s.binID(x)
	v := s.net.inner.Explicit(x)
	if v == tn.NoValue {
		v = "seed"
	}
	s.bin.SetExplicit(bx, tn.NoValue) // the helper carries it from now on
	for _, m := range s.bin.In(bx) {
		s.bin.SetMappingPriority(m.Parent, bx, 1)
	}
	helper := s.bin.AddUser(s.net.inner.Name(x) + "#b0")
	s.bin.SetExplicit(helper, v)
	s.bin.AddMapping(helper, bx, 2)
	s.rootNode[x] = helper
	s.rootsDirty = true
}

// ensureBinUser registers a user created after compilation in the
// binarized twin. Original and binarized IDs diverge from here on; binIDs
// carries the mapping.
func (s *session) ensureBinUser(name string, x int) {
	for len(s.binIDs) <= x {
		s.binIDs = append(s.binIDs, -1)
	}
	if s.binIDs[x] < 0 {
		s.binIDs[x] = s.bin.AddUser(name)
	}
}

func (s *session) isExtraRoot(x int) bool {
	_, ok := s.extraSet[x]
	return ok
}

// addExtraRootLocked records x as an extra root (idempotent). Callers
// hold mu (or, in newSession, exclusive ownership).
func (s *session) addExtraRootLocked(x int) {
	if _, ok := s.extraSet[x]; ok {
		return
	}
	s.extraSet[x] = struct{}{}
	s.extraRoots = append(s.extraRoots, x)
}

// flushLocked folds pending binarized mutations into the compiled
// artifact — rebuilding from scratch when a structural mutation demands
// it. Callers hold mu.
func (s *session) flushLocked() error {
	if s.needRebuild {
		return s.rebuild()
	}
	muts := s.bin.DrainJournal()
	if len(muts) == 0 {
		return nil
	}
	next, st, err := s.comp.Apply(muts, engine.ApplyOptions{MaxDirtyFraction: s.maxDirty})
	if err != nil {
		// The translation produced something the engine will not splice;
		// recover with a rebuild rather than failing the publication. The
		// journal is drained, so a failed rebuild must stay pending for
		// the pubStale retry.
		s.needRebuild = true
		return s.rebuild()
	}
	s.stats.LastApply = st
	switch {
	case st.FullRecompile:
		s.stats.FullRecompiles++
	case next == s.comp:
		s.stats.ValueOnlyUpdates++
	default:
		s.stats.IncrementalApplies++
	}
	s.comp = next
	return nil
}

// snapshot pins the epoch a read should serve from. A read that finds
// the last publication failed (pubStale) retries it under the writer lock
// first, so the failure surfaces as an error instead of stale serving.
func (s *session) snapshot() (*serve.Epoch[*sessionSnap], error) {
	if s.pubStale.Load() {
		s.mu.Lock()
		err := s.publishLocked()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return s.pub.Acquire(), nil
}

// BulkResolve resolves many objects against the currently published
// epoch. Each object maps root users to their per-object beliefs; roots
// missing from an object default to the network-level belief set via
// SetBelief. ExtraRoots users have no default and must appear in every
// object. Safe to call from any number of goroutines; the whole call is
// served by one epoch, and the returned resolution stays valid after the
// epoch is superseded.
func (s *session) BulkResolve(ctx context.Context, objects map[string]map[string]string) (*BulkResolution, error) {
	e, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	defer e.Release()
	return resolveSnap(ctx, e, objects, s.workers, s.noDedup)
}

// resolveSnap resolves objects against one pinned session epoch: the body
// shared by session.BulkResolve and the Store's cached and streaming read
// paths (which pin one epoch across several batches).
func resolveSnap(ctx context.Context, e *serve.Epoch[*sessionSnap], objects map[string]map[string]string, workers int, noDedup bool) (*BulkResolution, error) {
	snap := e.Value()
	conv := make(map[string]map[int]tn.Value, len(objects))
	for key, bs := range objects {
		m := make(map[int]tn.Value, len(snap.rootNode))
		for user, v := range bs {
			x := snap.view.UserID(user)
			if x < 0 {
				return nil, fmt.Errorf("%w: %q in object %q", ErrUnknownUser, user, key)
			}
			root, ok := snap.rootNode[x]
			if !ok {
				return nil, fmt.Errorf("trustmap: user %q in object %q is not a session root; declare it in ExtraRoots or give it a belief", user, key)
			}
			m[root] = tn.Value(v)
		}
		for x, root := range snap.rootNode {
			if _, ok := m[root]; ok {
				continue
			}
			if v, ok := snap.defaults[x]; ok {
				m[root] = v
			} else {
				return nil, fmt.Errorf("trustmap: object %q misses a belief for root user %q (assumption ii)", key, snap.view.Name(x))
			}
		}
		conv[key] = m
	}
	res, err := snap.comp.Resolve(ctx, conv, engine.Options{Workers: workers, DisableDedup: noDedup})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(objects))
	for k := range objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return &BulkResolution{src: snap.view, keys: keys, eng: res, binIDs: snap.binIDs, epoch: e.Seq()}, nil
}

// addObjectRoots registers users whose beliefs will vary per object after
// compilation, like WithExtraRoots but on a live session: the
// Store's PutBelief/PutObject path. Users that are already roots (declared
// extras or belief holders) only gain the extra-root protection — their
// carrier survives a later RemoveBelief — without a replan; genuinely new
// roots change the plan and publish a rebuilt epoch. It reports the names
// that were not extra roots before the call, in argument order, so
// Store.AddRoots can log exactly the effective registrations.
func (s *session) addObjectRoots(names ...string) (added []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		x := s.net.inner.AddUser(name)
		if s.isExtraRoot(x) {
			continue
		}
		s.addExtraRootLocked(x)
		added = append(added, name)
		if _, isRoot := s.rootNode[x]; !isRoot {
			s.needRebuild = true // the plan gains a root: replan required
		}
	}
	if s.needRebuild {
		return added, s.publishLocked()
	}
	return added, nil
}

// Resolve resolves one ad-hoc object's root beliefs against the currently
// published epoch: the mutate-then-resolve fast path. beliefs may be nil
// when every root has a network-level belief. The row's Object is the
// placeholder key "object" the ad-hoc batch is resolved under.
func (s *session) Resolve(ctx context.Context, beliefs map[string]string) (ObjectRow, error) {
	const key = "object"
	r, err := s.BulkResolve(ctx, map[string]map[string]string{key: beliefs})
	if err != nil {
		return ObjectRow{}, err
	}
	return ObjectRow{Object: key, res: r}, nil
}
