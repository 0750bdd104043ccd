package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dynplace/internal/daemon"
)

// routeSlice is one closed-loop slice of a route phase.
type routeSlice struct {
	rps, p50us, p99us float64
	requests          int
	attempted, failed int
}

// routeResult summarizes the slices of a route phase: the median slice
// of each figure, and the totals.
type routeResult struct {
	rps, p50us, p99us float64
	slices            int
	requests          int
	attempted, failed int
}

func summarizeRoute(slices []routeSlice, checks *checklist) routeResult {
	res := routeResult{slices: len(slices)}
	var rps, p50, p99 []float64
	for _, s := range slices {
		rps, p50, p99 = append(rps, s.rps), append(p50, s.p50us), append(p99, s.p99us)
		res.requests += s.requests
		res.attempted += s.attempted
		res.failed += s.failed
	}
	if res.failed > 0 {
		checks.fail("requests_succeed", "%d of %d route requests failed", res.failed, res.attempted)
	}
	res.rps, res.p50us, res.p99us = median(rps), median(p50), median(p99)
	return res
}

// runRouteSlice drives POST /v1/route/{app} with the given body (nil
// routes one request, {"n":N} a batch) in a closed loop, one client per
// CPU, for d. index numbers the slice within the run and seeds its
// clients' picks. sets, when non-nil, is the published instance set
// every routed node must belong to; one reply in 64 is decoded and
// checked.
func runRouteSlice(e *env, d time.Duration, index int, apps []string, body []byte, sets map[string]map[string]bool, client func() api, checks *checklist) routeSlice {
	clients := runtime.NumCPU()
	var res routeSlice
	checks.pass("routed_node_is_published_instance")
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := client()
			// A span per request is kept only over loopback, where a
			// request takes ~100 µs; through the handler it takes ~2 µs
			// and half a million spans a second would measure the
			// recorder.
			var rec *recorder
			if _, overNetwork := a.(*httpAPI); overNetwork {
				rec = e.rec
			}
			pick := rand.New(rand.NewSource(e.seed*1000 + int64(index*clients+c)))
			var lat []float64
			attempted, failed := 0, 0
			var bad string
			for i := 0; time.Since(begin) < d; i++ {
				app := apps[pick.Intn(len(apps))]
				sp := rec.begin(0, "route")
				t0 := time.Now()
				status, resp, err := a.do(http.MethodPost, "/v1/route/"+app, body)
				dt := time.Since(t0)
				rec.end(sp)
				attempted++
				if err != nil || !ok(status) {
					failed++
					continue
				}
				lat = append(lat, float64(dt.Nanoseconds())/1e3)
				if sets != nil && i%64 == 0 && status == http.StatusOK {
					var rr daemon.RouteResponse
					if err := json.Unmarshal(resp, &rr); err != nil || !sets[app][rr.Node] {
						bad = fmt.Sprintf("app %s routed to %q, not a published instance", app, rr.Node)
					}
				}
			}
			if h, isHTTP := a.(*httpAPI); isHTTP {
				h.close()
			}
			mu.Lock()
			all = append(all, lat...)
			res.attempted += attempted
			res.failed += failed
			if bad != "" {
				checks.fail("routed_node_is_published_instance", "%s", bad)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()
	asc := sorted(all)
	res.rps = float64(len(all)) / elapsed
	res.p50us, res.p99us = percentile(asc, 50), percentile(asc, 99)
	res.requests = len(all)
	return res
}
