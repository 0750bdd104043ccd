// Package router implements the entry request router for transactional
// applications: it distributes incoming requests over the application's
// placed instances in proportion to the CPU power each instance was
// allocated, and applies overload protection by queuing requests that the
// current capacity cannot immediately absorb.
//
// The router is the per-request dataplane, so its dispatch path is
// lock-free and allocation-free: routing tables are immutable snapshots
// behind atomic pointers (the control loop publishes a new snapshot each
// cycle; Dispatch never takes a lock), the weighted pick is a binary
// search over a precomputed cumulative table, queue admission is a CAS on
// an atomic depth counter, and per-node dispatch counts go to cache-line-
// padded striped counters that Snapshot aggregates on read. Control-plane
// operations (Update, Publish, Remove, Snapshot) serialize on a writer
// lock and swap copy-on-write state, so they never stall a dispatcher.
//
// A batch (DispatchBatch) makes no per-request pick at all: it
// apportions its n requests over one table in a single pass, so its
// cost grows with the number of instances, not with n.
//
// The router also keeps per-application arrival statistics, which feed
// the work profiler and the performance model.
package router

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Instance is one placement target for an application.
type Instance struct {
	// Node names the node hosting the instance.
	Node string
	// PowerMHz is the CPU power allocated to the instance; dispatch
	// weight is proportional to it.
	PowerMHz float64
}

// Stats summarizes router-side observations for one application.
// Dispatched, QueuedTotal and Rejected are lifetime counters;
// QueueDepth is the point-in-time protection-queue occupancy.
type Stats struct {
	// Dispatched counts requests handed to instances (lifetime).
	Dispatched int `json:"dispatched"`
	// QueueDepth is the number of requests currently waiting in the
	// protection queue (gauge).
	QueueDepth int `json:"queueDepth"`
	// QueuedTotal counts requests that ever entered the protection
	// queue (lifetime counter; draining does not decrease it).
	QueuedTotal int `json:"queuedTotal"`
	// Rejected counts requests dropped because the queue was full
	// (lifetime).
	Rejected int `json:"rejected"`
	// PerNode counts dispatches per node (lifetime).
	PerNode map[string]int `json:"perNode"`
}

// BatchResult tallies one DispatchBatch call.
type BatchResult struct {
	// Dispatched, Queued and Rejected partition the batch by outcome.
	Dispatched int `json:"dispatched"`
	Queued     int `json:"queued"`
	Rejected   int `json:"rejected"`
	// PerNode counts this batch's dispatches per node.
	PerNode map[string]int `json:"perNode"`
}

// ErrUnknownApp reports dispatch to an application the router has no
// routing entry for.
var ErrUnknownApp = errors.New("router: unknown application")

// ErrRejected reports that overload protection dropped the request.
var ErrRejected = errors.New("router: request rejected by overload protection")

// ---- striped counters -------------------------------------------------

// cacheLine pads one atomic to a 64-byte cache line so neighboring
// stripes (and neighboring per-instance counters) never false-share.
type cacheLine struct {
	v atomic.Uint64
	_ [7]uint64
}

// stripeCount is the number of stripes per counter: the smallest power
// of two covering the usable CPUs, capped to bound snapshot cost and
// memory on very wide machines (the pattern of obs/histogram.go).
var stripeCount = func() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	return n
}()

var stripeMask = uint64(stripeCount - 1)

// striped is a per-CPU-style counter: increments land on one of several
// cache-line-padded stripes selected by the runtime's cheap per-P RNG,
// so concurrent dispatchers do not ping-pong a shared line. Reads
// aggregate every stripe.
type striped struct {
	cells []cacheLine
}

func newStriped() *striped {
	return &striped{cells: make([]cacheLine, stripeCount)}
}

// add counts n on one stripe: 1 per single dispatch, a batch's whole
// per-node count in one atomic add.
func (s *striped) add(n uint64) {
	s.cells[rand.Uint64()&stripeMask].v.Add(n)
}

func (s *striped) value() uint64 {
	var total uint64
	for i := range s.cells {
		total += s.cells[i].v.Load()
	}
	return total
}

// ---- immutable routing snapshot ---------------------------------------

// table is one application's immutable routing snapshot. A publish
// builds a fresh table and swaps it in atomically; dispatchers read a
// loaded table without coordination. The per-node stat counters are
// resolved at build time from the app's persistent counter set, so
// counts accumulate across swaps without a fold step that could lose
// concurrent increments.
type table struct {
	instances []Instance
	cum       []float64 // cumulative weights for O(log n) weighted pick
	total     float64
	// perNode[i] is the lifetime dispatch counter for instances[i]'s
	// node, shared with the owning app across table generations.
	perNode []*striped
	// load[i] approximates instances[i]'s dispatches this table
	// generation — the signal power-of-two-choices balances on, and the
	// history a batch's apportionment evens out. Reset each publish so
	// both track the current cycle, and padded so concurrent
	// dispatchers do not false-share.
	load []cacheLine
}

// appState is one application's persistent dataplane state. The struct
// is stable for the app's lifetime: Update swaps only the inner table
// pointer, so the counters survive republishes and the accounting the
// daemon serves stays exact through placement changes.
type appState struct {
	table atomic.Pointer[table]
	// depth is the protection-queue occupancy, bounded by the router's
	// queueCap via CAS admission.
	depth       atomic.Int64
	queuedTotal *striped
	rejected    *striped
	// nodes maps node name to its lifetime dispatch counter. Written
	// only under the router's writer lock; dispatchers reach counters
	// through table.perNode pointers resolved at publish time.
	nodes map[string]*striped
}

func newAppState() *appState {
	st := &appState{
		queuedTotal: newStriped(),
		rejected:    newStriped(),
		nodes:       make(map[string]*striped),
	}
	st.table.Store(&table{})
	return st
}

// buildTable compiles an instance list into an immutable snapshot,
// dropping nonpositive-power instances and resolving per-node counters
// from (and into) the app's persistent set. Callers hold the router's
// writer lock.
func (st *appState) buildTable(instances []Instance) *table {
	t := &table{}
	for _, in := range instances {
		if in.PowerMHz <= 0 {
			continue
		}
		t.total += in.PowerMHz
		t.instances = append(t.instances, in)
		t.cum = append(t.cum, t.total)
		c, ok := st.nodes[in.Node]
		if !ok {
			c = newStriped()
			st.nodes[in.Node] = c
		}
		t.perNode = append(t.perNode, c)
	}
	t.load = make([]cacheLine, len(t.instances))
	return t
}

// Router dispatches requests for a set of applications. It is safe for
// concurrent use; the dispatch methods are lock-free.
type Router struct {
	// apps is the copy-on-write application map: dispatchers load it
	// atomically and read it without locks, writers rebuild it under mu.
	apps     atomic.Pointer[map[string]*appState]
	queueCap int64
	// mu serializes control-plane writers (Update, Publish, Remove) and
	// stat readers that walk the persistent node-counter maps.
	mu sync.Mutex
}

// New creates a router whose per-application protection queue holds up to
// queueCap requests (nonpositive disables queuing: requests without
// capacity are rejected immediately).
func New(queueCap int) *Router {
	if queueCap < 0 {
		queueCap = 0
	}
	r := &Router{queueCap: int64(queueCap)}
	empty := make(map[string]*appState)
	r.apps.Store(&empty)
	return r
}

// lookup returns the application's persistent state, lock-free.
func (r *Router) lookup(app string) (*appState, bool) {
	st, ok := (*r.apps.Load())[app]
	return st, ok
}

// cloneApps copies the current application map for a copy-on-write
// mutation. Callers hold r.mu.
func (r *Router) cloneApps() map[string]*appState {
	cur := *r.apps.Load()
	next := make(map[string]*appState, len(cur)+1)
	for name, st := range cur {
		next[name] = st
	}
	return next
}

// Update replaces the routing table for an application, registering it
// on first use. Instances with nonpositive power are dropped. An
// application with no usable instances still accepts requests into the
// protection queue. Stats persist across updates.
func (r *Router) Update(app string, instances []Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.lookup(app)
	if !ok {
		st = newAppState()
		next := r.cloneApps()
		next[app] = st
		st.table.Store(st.buildTable(instances))
		r.apps.Store(&next)
		return
	}
	st.table.Store(st.buildTable(instances))
}

// Publish replaces the routing tables of every listed application in one
// control-plane pass — the per-cycle republish. Applications not listed
// keep their current tables; unknown applications are registered. The
// application map is swapped at most once, so dispatchers racing a
// publish see either the old cycle's tables or the new ones, never a
// half-built map.
func (r *Router) Publish(tables map[string][]Instance) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.apps.Load()
	next := cur
	cloned := false
	for app, instances := range tables {
		st, ok := next[app]
		if !ok {
			if !cloned {
				next = r.cloneApps()
				cloned = true
			}
			st = newAppState()
			next[app] = st
		}
		st.table.Store(st.buildTable(instances))
	}
	if cloned {
		r.apps.Store(&next)
	}
}

// Remove deletes an application's routing entry and its statistics.
func (r *Router) Remove(app string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.lookup(app); !ok {
		return
	}
	next := r.cloneApps()
	delete(next, app)
	r.apps.Store(&next)
}

// pickIndex maps pick ∈ [0,1) onto an instance index through the
// cumulative weight table — the exact-weight pick. The mapping is
// bit-identical to the original mutex router: clamp, scale by the
// total, first cum ≥ target, stepping past an exact boundary hit.
func (t *table) pickIndex(pick float64) int {
	if pick < 0 {
		pick = 0
	}
	if pick >= 1 {
		pick = 0.999999
	}
	target := pick * t.total
	// Inlined SearchFloat64s: first cum ≥ target. cum is strictly
	// increasing since zero-power instances are dropped.
	lo, hi := 0, len(t.cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	if i >= len(t.instances) {
		i = len(t.instances) - 1
	}
	if t.cum[i] == target && i+1 < len(t.instances) {
		i++
	}
	return i
}

// admit tries to park up to n requests in the protection queue and
// returns how many it parked; the queue's free room bounds it. CAS
// admission so concurrent dispatchers never overshoot the cap.
func (r *Router) admit(st *appState, n int64) int64 {
	for {
		d := st.depth.Load()
		take := min(n, r.queueCap-d)
		if take <= 0 {
			return 0
		}
		if st.depth.CompareAndSwap(d, d+take) {
			st.queuedTotal.add(uint64(take))
			return take
		}
	}
}

// Dispatch routes one request. pick ∈ [0,1) selects the instance among
// the weighted alternatives (callers pass an RNG sample; passing a
// deterministic value makes tests exact). It returns the chosen node.
// When the application has no capacity the request is queued, or rejected
// if the queue is full. The success paths are lock-free and perform no
// allocations.
func (r *Router) Dispatch(app string, pick float64) (node string, err error) {
	return r.dispatch(app, pick, false)
}

// DispatchBalanced routes one request with power-of-two-choices among
// the application's instances: two independent weighted samples are
// drawn and the candidate with the lower dispatch-to-power ratio this
// cycle wins. The long-run per-node distribution still tracks the
// allocated-power proportions, with far less short-term imbalance than
// independent weighted sampling. Lock- and allocation-free.
func (r *Router) DispatchBalanced(app string) (node string, err error) {
	return r.dispatch(app, rand.Float64(), true)
}

// dispatch resolves the application and routes one request, building
// the single-request entry points' errors.
func (r *Router) dispatch(app string, pick float64, balanced bool) (string, error) {
	st, ok := r.lookup(app)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownApp, app)
	}
	node, out := r.route(st, pick, balanced)
	if out == rejected {
		return "", fmt.Errorf("%w: %q", ErrRejected, app)
	}
	return node, nil
}

// outcome is what route did with one request.
type outcome uint8

const (
	dispatched outcome = iota
	queued
	rejected
)

// route routes one request on the application's current table — the
// one routing path behind Dispatch and DispatchBalanced. It returns
// the chosen node, or queues the request (rejecting it when the queue
// is full) if the application has no capacity. balanced refines the
// weighted pick with power-of-two-choices. It takes no lock and
// allocates nothing.
func (r *Router) route(st *appState, pick float64, balanced bool) (string, outcome) {
	t := st.table.Load()
	if t.total <= 0 {
		if r.admit(st, 1) == 0 {
			st.rejected.add(1)
			return "", rejected
		}
		return "", queued
	}
	i := t.pickIndex(pick)
	if balanced && len(t.instances) > 1 {
		if j := t.pickIndex(rand.Float64()); j != i {
			// Prefer the candidate with the lower dispatches-per-MHz
			// this table generation; cross-multiply to avoid division.
			li := float64(t.load[i].v.Load()) * t.instances[j].PowerMHz
			lj := float64(t.load[j].v.Load()) * t.instances[i].PowerMHz
			if lj < li {
				i = j
			}
		}
		t.load[i].v.Add(1)
	}
	t.perNode[i].add(1)
	return t.instances[i].Node, dispatched
}

// DispatchBatch routes n requests in one call and returns per-node
// dispatch counts and queued/rejected tallies — the bulk form behind
// POST /v1/route/{name}. It loads the application's table once, so a
// republish racing the call takes effect at the next batch, never
// partway through one.
//
// A batch makes no per-request pick: the n requests are apportioned
// over the table's instances in one pass. Each instance gets the floor
// or the ceiling of its exact share n·PowerMHz/total, so every count is
// within one request of its share; the ceilings go to the instances
// furthest below their share of the table generation's dispatches so
// far, so repeated small batches spread over all instances instead of
// landing on the same ones. The split depends only on the call sequence
// (no randomness), and the work is O(k log k) for k instances,
// independent of n. Each nonzero count lands in the instance's counters
// with one atomic add. With no capacity the batch fills the protection
// queue's free room with one CAS and rejects the rest.
func (r *Router) DispatchBatch(app string, n int) (BatchResult, error) {
	if n <= 0 {
		return BatchResult{PerNode: map[string]int{}}, nil
	}
	st, ok := r.lookup(app)
	if !ok {
		return BatchResult{PerNode: map[string]int{}}, fmt.Errorf("%w: %q", ErrUnknownApp, app)
	}
	t := st.table.Load()
	k := len(t.instances)
	res := BatchResult{PerNode: make(map[string]int, min(k, n))} // at most n nonzero counts
	if t.total <= 0 {
		res.Queued = int(r.admit(st, int64(n)))
		res.Rejected = n - res.Queued
		if res.Rejected > 0 {
			st.rejected.add(uint64(res.Rejected))
		}
		return res, nil
	}
	// The split's two working rows live on the stack for the table
	// sizes a placement produces; a wider table pays one allocation,
	// whatever n.
	var buf [128]float64
	rows := buf[:]
	if 2*k > len(buf) {
		rows = make([]float64, 2*k)
	}
	gap := rows[:k]
	t.apportion(n, gap, rows[k:2*k])
	left := n
	for i, in := range t.instances {
		c := left
		if i < k-1 {
			c = int(math.Floor(float64(n) * in.PowerMHz / t.total))
			if gap[i] == extraSeat {
				c++
			}
		}
		left -= c
		if c == 0 {
			continue
		}
		t.load[i].v.Add(uint64(c))
		t.perNode[i].add(uint64(c))
		res.PerNode[in.Node] += c
	}
	res.Dispatched = n
	return res, nil
}

// extraSeat marks, in apportion's working row, an instance that gets the
// ceiling of its share rather than the floor; noSeat one whose share is
// whole, which takes no extra request.
var extraSeat, noSeat = math.Inf(1), math.Inf(-1)

// apportion decides which instances get the ceiling of their share of
// an n-request batch. gap and scratch are working rows of one entry
// per instance; on return gap holds extraSeat exactly for those
// instances. The floors leave seats = n − Σ⌊n·pᵢ⌋ requests over; they
// go, one per instance, to the instances with a fractional share that
// are furthest below their exact share of the generation once this
// batch is counted (ties to the lower index). Every load is read once,
// so racing dispatchers cannot make the seat count disagree with the
// floors.
func (t *table) apportion(n int, gap, scratch []float64) {
	var before float64
	for i := range gap {
		gap[i] = float64(t.load[i].v.Load())
		before += gap[i]
	}
	seats := n
	candidates := scratch[:0]
	for i, in := range t.instances {
		share := float64(n) * in.PowerMHz / t.total
		floor := math.Floor(share)
		seats -= int(floor)
		if share == floor {
			gap[i] = noSeat
			continue
		}
		// The instance's exact share of the generation after this
		// batch, less what it had and what the floor gives it.
		gap[i] = (before+float64(n))*in.PowerMHz/t.total - gap[i] - floor
		candidates = append(candidates, gap[i])
	}
	// Float rounding can leave a seat more than there are candidates;
	// DispatchBatch gives the last instance whatever is left over.
	seats = min(seats, len(candidates))
	if seats <= 0 {
		return
	}
	// Seat every gap above the seats-th largest, then those equal to
	// it in index order.
	slices.Sort(candidates)
	cut := candidates[len(candidates)-seats]
	for i, g := range gap {
		if g > cut {
			gap[i] = extraSeat
			seats--
		}
	}
	for i, g := range gap {
		if seats > 0 && g == cut {
			gap[i] = extraSeat
			seats--
		}
	}
}

// Drain releases up to n queued requests for the application (capacity
// has become available) and returns how many were released.
func (r *Router) Drain(app string, n int) int {
	st, ok := r.lookup(app)
	if !ok || n <= 0 {
		return 0
	}
	for {
		d := st.depth.Load()
		release := int64(n)
		if release > d {
			release = d
		}
		if release <= 0 {
			return 0
		}
		if st.depth.CompareAndSwap(d, d-release) {
			return int(release)
		}
	}
}

// Apps returns the registered application names in sorted order.
func (r *Router) Apps() []string {
	apps := *r.apps.Load()
	names := make([]string, 0, len(apps))
	for name := range apps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Instances returns a copy of the application's current routing entry and
// whether the application is registered.
func (r *Router) Instances(app string) ([]Instance, bool) {
	st, ok := r.lookup(app)
	if !ok {
		return nil, false
	}
	t := st.table.Load()
	out := make([]Instance, len(t.instances))
	copy(out, t.instances)
	return out, true
}

// statsOf aggregates one application's striped counters. Callers hold
// r.mu (the persistent node-counter map is walked).
func statsOf(st *appState) Stats {
	out := Stats{
		QueueDepth:  int(st.depth.Load()),
		QueuedTotal: int(st.queuedTotal.value()),
		Rejected:    int(st.rejected.value()),
		PerNode:     make(map[string]int, len(st.nodes)),
	}
	for node, c := range st.nodes {
		n := int(c.value())
		out.PerNode[node] = n
		out.Dispatched += n
	}
	return out
}

// Snapshot returns every application's statistics keyed by name — the
// router-side observability feed the daemon's metrics endpoint serves.
func (r *Router) Snapshot() map[string]Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	apps := *r.apps.Load()
	out := make(map[string]Stats, len(apps))
	for name, st := range apps {
		out[name] = statsOf(st)
	}
	return out
}

// StatsFor returns a copy of the application's statistics.
func (r *Router) StatsFor(app string) (Stats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.lookup(app)
	if !ok {
		return Stats{}, false
	}
	return statsOf(st), true
}
