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
// The router also keeps per-application arrival statistics, which feed
// the work profiler and the performance model.
package router

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynplace/internal/obs"
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

// Instruments is the set of observability hooks on the dispatch path.
// Any field may be nil; obs instruments are nil-safe, so dispatch
// records unconditionally into whatever is present.
type Instruments struct {
	// Dispatched, Queued, Rejected and Unknown count Dispatch calls by
	// outcome.
	Dispatched *obs.Counter
	Queued     *obs.Counter
	Rejected   *obs.Counter
	Unknown    *obs.Counter
	// Latency observes each Dispatch call's duration in seconds.
	Latency *obs.Histogram
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

func (s *striped) inc() {
	s.cells[rand.Uint64()&stripeMask].v.Add(1)
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
	// generation — the signal power-of-two-choices balances on. Reset
	// each publish so the comparison tracks the current cycle, and
	// padded so concurrent dispatchers do not false-share.
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
	// ins holds the optional dispatch-path instruments; an atomic
	// pointer so they can be installed after the router is serving.
	ins atomic.Pointer[Instruments]
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

// SetInstruments installs (or, with nil, removes) the dispatch-path
// observability hooks. Safe to call while the router is serving.
func (r *Router) SetInstruments(ins *Instruments) { r.ins.Store(ins) }

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

// admit tries to park one request in the protection queue, returning
// false when the queue is full. CAS admission so concurrent dispatchers
// never overshoot the cap.
func (r *Router) admit(st *appState) bool {
	for {
		d := st.depth.Load()
		if d >= r.queueCap {
			return false
		}
		if st.depth.CompareAndSwap(d, d+1) {
			st.queuedTotal.inc()
			return true
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
	ins := r.ins.Load()
	if ins == nil {
		return r.dispatch(app, pick, false)
	}
	var begin time.Time
	if ins.Latency != nil {
		//dynplace:ignore clockhygiene dispatch latency histogram; measurement only, routing outcome is unaffected
		begin = time.Now()
	}
	node, err = r.dispatch(app, pick, false)
	recordOutcome(ins, node, err)
	if ins.Latency != nil {
		ins.Latency.ObserveSince(begin)
	}
	return node, err
}

// DispatchBalanced routes one request with power-of-two-choices among
// the application's instances: two independent weighted samples are
// drawn and the candidate with the lower dispatch-to-power ratio this
// cycle wins. The long-run per-node distribution still tracks the
// allocated-power proportions, with far less short-term imbalance than
// independent weighted sampling. Lock- and allocation-free.
func (r *Router) DispatchBalanced(app string) (node string, err error) {
	ins := r.ins.Load()
	if ins == nil {
		return r.dispatch(app, rand.Float64(), true)
	}
	var begin time.Time
	if ins.Latency != nil {
		//dynplace:ignore clockhygiene dispatch latency histogram; measurement only, routing outcome is unaffected
		begin = time.Now()
	}
	node, err = r.dispatch(app, rand.Float64(), true)
	recordOutcome(ins, node, err)
	if ins.Latency != nil {
		ins.Latency.ObserveSince(begin)
	}
	return node, err
}

func recordOutcome(ins *Instruments, node string, err error) {
	switch {
	case err == nil && node != "":
		ins.Dispatched.Inc()
	case err == nil:
		ins.Queued.Inc()
	case errors.Is(err, ErrRejected):
		ins.Rejected.Inc()
	default:
		ins.Unknown.Inc()
	}
}

// dispatch is the shared hot path. balanced selects power-of-two-choices
// refinement of the weighted pick.
func (r *Router) dispatch(app string, pick float64, balanced bool) (string, error) {
	st, ok := r.lookup(app)
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownApp, app)
	}
	t := st.table.Load()
	if t.total <= 0 {
		if !r.admit(st) {
			st.rejected.inc()
			return "", fmt.Errorf("%w: %q", ErrRejected, app)
		}
		return "", nil
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
	t.perNode[i].inc()
	return t.instances[i].Node, nil
}

// DispatchBatch routes n requests in one call using power-of-two-choices
// picks, resolving the application and its routing table once. It
// returns per-node dispatch counts and queued/rejected tallies — the
// bulk form behind POST /v1/route/{name}, so load tests measure the
// dataplane instead of HTTP round-trips.
func (r *Router) DispatchBatch(app string, n int) (BatchResult, error) {
	res := BatchResult{PerNode: map[string]int{}}
	if n <= 0 {
		return res, nil
	}
	st, ok := r.lookup(app)
	if !ok {
		return res, fmt.Errorf("%w: %q", ErrUnknownApp, app)
	}
	ins := r.ins.Load()
	for k := 0; k < n; k++ {
		// Reload the table each iteration so a concurrent republish
		// takes effect mid-batch, exactly as it would across n
		// single-request dispatches.
		t := st.table.Load()
		if t.total <= 0 {
			if r.admit(st) {
				res.Queued++
				if ins != nil {
					ins.Queued.Inc()
				}
			} else {
				st.rejected.inc()
				res.Rejected++
				if ins != nil {
					ins.Rejected.Inc()
				}
			}
			continue
		}
		i := t.pickIndex(rand.Float64())
		if len(t.instances) > 1 {
			if j := t.pickIndex(rand.Float64()); j != i {
				li := float64(t.load[i].v.Load()) * t.instances[j].PowerMHz
				lj := float64(t.load[j].v.Load()) * t.instances[i].PowerMHz
				if lj < li {
					i = j
				}
			}
		}
		t.load[i].v.Add(1)
		t.perNode[i].inc()
		res.PerNode[t.instances[i].Node]++
		res.Dispatched++
		if ins != nil {
			ins.Dispatched.Inc()
		}
	}
	return res, nil
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
