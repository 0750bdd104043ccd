package daemon

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dynplace"
	"dynplace/internal/cluster"
	"dynplace/internal/control"
	"dynplace/internal/obs"
	"dynplace/internal/router"
)

// Handler returns the daemon's HTTP API. Every route lives under /v1;
// any other path, the bare unversioned ones included, is the mux's
// plain 404 (see docs/API.md):
//
//	GET    /v1/healthz            liveness, cycle progress, truthful status
//	GET    /v1/placement          the latest placement snapshot
//	GET    /v1/metrics            counters, router stats, cycle history
//	GET    /v1/apps               registered web application names
//	POST   /v1/apps               register a web application
//	DELETE /v1/apps/{name}        deregister a web application
//	POST   /v1/apps/{name}/load   update an application's arrival rate
//	GET    /v1/apps/{name}/forecast  the demand estimator's state and
//	                              scorecard (409 when forecasting is off)
//	POST   /v1/route/{name}       dispatch through the router; body
//	                              {"n": N} splits N requests over the
//	                              instances in proportion in one call
//	GET    /v1/jobs               job outcomes so far
//	POST   /v1/jobs               submit a batch job
//	GET    /v1/nodes              inventory nodes with lifecycle states
//	POST   /v1/nodes              add a node to the inventory
//	POST   /v1/nodes/{name}/drain start a graceful node departure
//	POST   /v1/nodes/{name}/fail  record an abrupt node loss
//	DELETE /v1/nodes/{name}       remove an empty (drained/failed) node
//	GET    /v1/state              durability status (WAL, snapshots, replay)
//	POST   /v1/state/snapshot     write a compacting snapshot now
//	GET    /v1/metrics/prom       Prometheus text exposition (version 0.0.4;
//	                              gzip-encoded when Accept-Encoding allows)
//	GET    /v1/explain            the last cycle's decision provenance
//	GET    /v1/explain/apps/{name}  one application's decision history
//	GET    /v1/debug/cycles       span timelines of the retained recent cycles
//	GET    /v1/debug/cycles/{n}   span timeline of cycle n
//	GET    /v1/debug/bundle       self-diagnosing debug bundle (tar.gz)
//
// Bodies and responses are JSON, responses compact on one line (the
// placement as encoded once at publish); workload specs use the
// library's public spec types (dynplace.WebAppSpec, dynplace.JobSpec).
// Errors use a uniform envelope {"error": {"code": "...", "message":
// "..."}} with machine-readable codes (see codeFor); 503 responses
// carry a Retry-After header sized to the control cycle. Every route is
// wrapped in latency/status instrumentation feeding the dynplace_http_*
// series on /v1/metrics/prom, labeled by its registered pattern.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	classes := d.obs.responseClasses()
	// Each route's histogram is pre-registered here, so request
	// handling itself never takes a registry lock.
	route := func(pattern string, h http.HandlerFunc) {
		ins := d.obs.newHTTPInstrument(pattern, &classes)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			//dynplace:ignore clockhygiene HTTP latency histogram; measures real elapsed time, never feeds placement
			begin := time.Now()
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			h(rec, r)
			ins.dur.ObserveSince(begin)
			if c := rec.status / 100; c >= 1 && c < len(ins.byClass) {
				ins.byClass[c].Inc()
			}
		})
	}
	route("GET /v1/healthz", d.handleHealthz)
	route("GET /v1/placement", d.handlePlacement)
	route("GET /v1/metrics", d.handleMetrics)
	route("GET /v1/metrics/prom", d.handleMetricsProm)
	route("GET /v1/explain", d.handleExplain)
	route("GET /v1/explain/apps/{name}", d.handleExplainApp)
	route("GET /v1/debug/cycles", d.handleCycles)
	route("GET /v1/debug/cycles/{n}", d.handleCycle)
	route("GET /v1/debug/bundle", d.handleBundle)
	route("GET /v1/apps", d.handleListApps)
	route("POST /v1/apps", d.handleAddApp)
	route("DELETE /v1/apps/{name}", d.handleRemoveApp)
	route("POST /v1/apps/{name}/load", d.handleSetLoad)
	route("GET /v1/apps/{name}/forecast", d.handleForecast)
	route("POST /v1/route/{name}", d.handleRoute)
	route("GET /v1/jobs", d.handleJobs)
	route("POST /v1/jobs", d.handleSubmitJob)
	route("GET /v1/nodes", d.handleListNodes)
	route("POST /v1/nodes", d.handleAddNode)
	route("POST /v1/nodes/{name}/drain", d.handleDrainNode)
	route("POST /v1/nodes/{name}/fail", d.handleFailNode)
	route("DELETE /v1/nodes/{name}", d.handleRemoveNode)
	route("GET /v1/state", d.handleState)
	route("POST /v1/state/snapshot", d.handleSnapshot)
	return mux
}

// statusRecorder captures the response status for the per-class
// counters. Handlers that never call WriteHeader implicitly return
// 200, which is the initial value.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// AddAppRequest is the POST /v1/apps body. Relative interprets the load
// schedule's phase times as offsets from the current clock reading.
type AddAppRequest struct {
	App      dynplace.WebAppSpec `json:"app"`
	Relative bool                `json:"relative,omitempty"`
}

// SubmitJobRequest is the POST /v1/jobs body. Relative interprets Submit,
// DesiredStart and Deadline as offsets from the current clock reading.
type SubmitJobRequest struct {
	Job      dynplace.JobSpec `json:"job"`
	Relative bool             `json:"relative,omitempty"`
}

// SetLoadRequest is the POST /v1/apps/{name}/load body. Rate 0 quiesces
// the application without deregistering it.
type SetLoadRequest struct {
	ArrivalRate float64 `json:"arrivalRate"`
}

// AddNodeRequest is the POST /v1/nodes body. An empty name is assigned
// automatically ("node-<id>").
type AddNodeRequest struct {
	Name   string  `json:"name,omitempty"`
	CPUMHz float64 `json:"cpuMHz"`
	MemMB  float64 `json:"memMB"`
}

// RouteRequest is the optional POST /v1/route/{name} body. N > 1
// batches that many dispatches in one call; absent, zero or one means a
// single request.
type RouteRequest struct {
	N int `json:"n,omitempty"`
}

// RouteResponse is the single-request POST /v1/route/{name} body on
// success.
type RouteResponse struct {
	Node   string `json:"node,omitempty"`
	Queued bool   `json:"queued,omitempty"`
}

// BatchRouteResponse is the POST /v1/route/{name} body when the request
// asked for a batch ({"n": N}): per-node dispatch counts plus
// queued/rejected tallies.
type BatchRouteResponse struct {
	Requests   int            `json:"requests"`
	Dispatched int            `json:"dispatched"`
	Queued     int            `json:"queued"`
	Rejected   int            `json:"rejected"`
	PerNode    map[string]int `json:"perNode"`
}

// maxRouteBatch bounds one batch-route call; larger loads should issue
// multiple calls so each stays promptly cancellable.
const maxRouteBatch = 1_000_000

// ErrorResponse is the uniform error envelope every non-2xx response
// carries: a machine-readable code (see codeFor for the table) plus the
// human-readable message.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// codeFor maps domain sentinel errors onto the stable machine-readable
// codes of the error envelope; "" means no sentinel matched and the
// code falls back to the HTTP status class (codeForStatus).
//
// The code table (documented in docs/API.md):
//
//	bad_spec      a workload spec failed validation (dynplace.ErrBadSpec)
//	bad_request   a malformed request or argument (ErrDaemon,
//	              control.ErrBadConfig, cluster.ErrBadNode, JSON decode)
//	not_found     unknown application, node, job or cycle (ErrNotFound,
//	              cluster.ErrUnknownInventoryNode, router.ErrUnknownApp)
//	rejected      the router's overload protection dropped the request
//	              (router.ErrRejected); retry after Retry-After seconds
//	recovering    boot-time WAL replay still running (ErrRecovering)
//	store_failed  the durable store is failing (ErrStore)
//	internal      anything else
func codeFor(err error) string {
	switch {
	case errors.Is(err, router.ErrRejected):
		return "rejected"
	case errors.Is(err, dynplace.ErrBadSpec):
		return "bad_spec"
	case errors.Is(err, ErrNotFound), errors.Is(err, cluster.ErrUnknownInventoryNode),
		errors.Is(err, router.ErrUnknownApp):
		return "not_found"
	case errors.Is(err, ErrRecovering):
		return "recovering"
	case errors.Is(err, ErrStore):
		return "store_failed"
	case errors.Is(err, ErrDaemon), errors.Is(err, control.ErrBadConfig),
		errors.Is(err, cluster.ErrBadNode):
		return "bad_request"
	}
	return ""
}

// codeForStatus is the envelope-code fallback when no sentinel matched:
// the HTTP status class still yields a stable machine-readable code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusServiceUnavailable:
		return "unavailable"
	}
	return "internal"
}

// writeJSON answers status with v's compact JSON encoding. The body is
// encoded before the status line goes out, so a value encoding/json
// rejects (a NaN or ±Inf float) answers 500 with the internal error
// envelope, not 200 with a truncated body.
func (d *Daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		d.encodeFailed(w, err)
		return
	}
	writeBody(w, status, body)
}

// encodeFailed logs a response that could not be encoded and answers
// 500 in its place.
func (d *Daemon) encodeFailed(w http.ResponseWriter, err error) {
	d.cfg.Warnf("encode response: %v", err)
	writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
}

var newline = []byte{'\n'}

// writeBody answers status with a compact JSON encoding as one line:
// the body, then a newline.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = w.Write(newline)
}

func writeError(w http.ResponseWriter, status int, err error) {
	code := codeFor(err)
	if code == "" {
		code = codeForStatus(status)
	}
	// Two strings always encode.
	body, _ := json.Marshal(ErrorResponse{Error: ErrorDetail{Code: code, Message: err.Error()}})
	writeBody(w, status, body)
}

// writeError adds the daemon-level response conventions on top of the
// bare envelope: 503s carry a Retry-After header sized to the control
// cycle, since capacity (a placement change, a finished replay) arrives
// at cycle granularity.
func (d *Daemon) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(d.retryAfterSeconds()))
	}
	writeError(w, status, err)
}

func (d *Daemon) retryAfterSeconds() int {
	s := int(math.Ceil(d.cfg.CycleSeconds))
	if s < 1 {
		s = 1
	}
	return s
}

// maxBodyBytes bounds request bodies; workload specs are tiny, so 1 MiB
// is generous while keeping a hostile client from ballooning memory.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	d.writeJSON(w, http.StatusOK, d.Health())
}

// handlePlacement serves the published snapshot's encoding verbatim:
// the snapshot is encoded once, however often it is read.
func (d *Daemon) handlePlacement(w http.ResponseWriter, _ *http.Request) {
	enc, err := d.placement.Load().encoded()
	if err != nil {
		d.encodeFailed(w, err)
		return
	}
	writeBody(w, http.StatusOK, enc.Bytes())
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	d.writeJSON(w, http.StatusOK, d.Metrics())
}

func (d *Daemon) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	out := io.Writer(w)
	if acceptsGzip(r) {
		// The exposition compresses ~10x; scrapers that send
		// Accept-Encoding: gzip (Prometheus does by default) get it.
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		defer func() { _ = gz.Close() }()
		out = gz
	}
	_ = d.obs.reg.WritePrometheus(out)
}

// acceptsGzip reports whether the request's Accept-Encoding header
// admits gzip: the token present with no qvalue, or with q > 0.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}

func (d *Daemon) handleExplain(w http.ResponseWriter, _ *http.Request) {
	rec, ok := d.LastExplanation()
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("%w: no cycle explanation recorded yet", ErrNotFound))
		return
	}
	d.writeJSON(w, http.StatusOK, rec)
}

func (d *Daemon) handleExplainApp(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	history, err := d.AppExplainHistory(name)
	if err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]any{"app": name, "history": history})
}

func (d *Daemon) handleBundle(w http.ResponseWriter, _ *http.Request) {
	// Assemble fully before writing: an error after the first body byte
	// could not carry the JSON error envelope anymore.
	var buf bytes.Buffer
	if err := d.WriteBundle(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q",
			fmt.Sprintf("dynplace-bundle-cycle%d.tar.gz", d.cycles.Load())))
	_, _ = w.Write(buf.Bytes())
}

func (d *Daemon) handleCycles(w http.ResponseWriter, _ *http.Request) {
	traces := d.obs.tracer.Recent()
	if traces == nil {
		traces = []obs.TraceView{}
	}
	d.writeJSON(w, http.StatusOK, map[string]any{"cycles": traces})
}

func (d *Daemon) handleCycle(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseInt(r.PathValue("n"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: bad cycle number %q", ErrDaemon, r.PathValue("n")))
		return
	}
	view, ok := d.obs.tracer.Cycle(n)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("%w: no retained trace for cycle %d", ErrNotFound, n))
		return
	}
	d.writeJSON(w, http.StatusOK, view)
}

func (d *Daemon) handleListApps(w http.ResponseWriter, _ *http.Request) {
	names := d.WebAppNames()
	if names == nil {
		names = []string{}
	}
	d.writeJSON(w, http.StatusOK, map[string][]string{"apps": names})
}

func (d *Daemon) handleAddApp(w http.ResponseWriter, r *http.Request) {
	var req AddAppRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := d.AddWebApp(req.App, req.Relative); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusCreated, map[string]string{"added": req.App.Name})
}

func (d *Daemon) handleRemoveApp(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := d.RemoveWebApp(name); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (d *Daemon) handleSetLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req SetLoadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := d.SetArrivalRate(name, req.ArrivalRate); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]any{"app": name, "arrivalRate": req.ArrivalRate})
}

func (d *Daemon) handleForecast(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	view, err := d.Forecast(name)
	if err != nil {
		status := statusFor(err)
		if errors.Is(err, errForecastDisabled) {
			// Well-formed request, conflicting daemon configuration.
			status = http.StatusConflict
		}
		d.writeError(w, status, err)
		return
	}
	d.writeJSON(w, http.StatusOK, view)
}

func (d *Daemon) handleRoute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The body is optional: absent (or n ≤ 1) routes one request; the
	// batch form apportions n requests over one routing table in a
	// single call, at a cost that does not grow with n.
	var req RouteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		d.writeError(w, http.StatusBadRequest, err)
		return
	}
	switch {
	case req.N < 0 || req.N > maxRouteBatch:
		d.writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: n=%d out of range [0, %d]", ErrDaemon, req.N, maxRouteBatch))
	case req.N > 1:
		res, err := d.router.DispatchBatch(name, req.N)
		if err != nil {
			d.writeError(w, http.StatusNotFound, err)
			return
		}
		if res.Dispatched == 0 && res.Queued == 0 && res.Rejected > 0 {
			// The whole batch hit a full protection queue: a 503 tells
			// load balancers to back off, Retry-After for how long.
			d.writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("%w: %q: all %d requests rejected", router.ErrRejected, name, res.Rejected))
			return
		}
		d.writeJSON(w, http.StatusOK, BatchRouteResponse{
			Requests:   req.N,
			Dispatched: res.Dispatched,
			Queued:     res.Queued,
			Rejected:   res.Rejected,
			PerNode:    res.PerNode,
		})
	default:
		node, err := d.router.DispatchBalanced(name)
		switch {
		case err == nil && node != "":
			d.writeJSON(w, http.StatusOK, RouteResponse{Node: node})
		case err == nil:
			d.writeJSON(w, http.StatusAccepted, RouteResponse{Queued: true})
		case errors.Is(err, router.ErrRejected):
			d.writeError(w, http.StatusServiceUnavailable, err)
		default:
			d.writeError(w, http.StatusNotFound, err)
		}
	}
}

func (d *Daemon) handleJobs(w http.ResponseWriter, _ *http.Request) {
	results := d.JobResults()
	if results == nil {
		results = []dynplace.JobResult{}
	}
	d.writeJSON(w, http.StatusOK, map[string]any{"jobs": results})
}

func (d *Daemon) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req SubmitJobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := d.SubmitJob(req.Job, req.Relative); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusCreated, map[string]string{"submitted": req.Job.Name})
}

func (d *Daemon) handleListNodes(w http.ResponseWriter, _ *http.Request) {
	d.writeJSON(w, http.StatusOK, map[string][]NodeView{"nodes": d.NodeViews()})
}

func (d *Daemon) handleAddNode(w http.ResponseWriter, r *http.Request) {
	var req AddNodeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	name, err := d.AddNode(req.Name, req.CPUMHz, req.MemMB)
	if err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusCreated, map[string]string{"added": name})
}

func (d *Daemon) handleDrainNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := d.DrainNode(name); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"draining": name})
}

func (d *Daemon) handleFailNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := d.FailNode(name); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"failed": name})
}

func (d *Daemon) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := d.RemoveNode(name); err != nil {
		d.writeError(w, statusFor(err), err)
		return
	}
	d.writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (d *Daemon) handleState(w http.ResponseWriter, _ *http.Request) {
	d.writeJSON(w, http.StatusOK, d.Durability())
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	info, err := d.SnapshotNow()
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrDaemon):
			// No store configured: the request is wrong, not the daemon.
			status = http.StatusConflict
		case errors.Is(err, ErrRecovering), errors.Is(err, ErrStore):
			// Recovery pending (a snapshot now would stamp the empty
			// in-memory state over the durable history) or the state dir
			// is failing: a durability outage, not a bad request.
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	d.writeJSON(w, http.StatusOK, info)
}

// statusFor maps domain errors onto HTTP statuses: bad specs and bad
// requests are the client's fault; anything else is ours.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, cluster.ErrUnknownInventoryNode):
		return http.StatusNotFound
	case errors.Is(err, dynplace.ErrBadSpec), errors.Is(err, ErrDaemon),
		errors.Is(err, control.ErrBadConfig), errors.Is(err, cluster.ErrBadNode):
		return http.StatusBadRequest
	case errors.Is(err, ErrStore), errors.Is(err, ErrRecovering):
		// The state dir is failing (or still being replayed), not the
		// request: 503 so clients and load balancers retry elsewhere
		// instead of having a mutation acknowledged and then wiped.
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
