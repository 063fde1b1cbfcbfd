package advisor

import "interstitial/internal/obs"

// httpLatencyBounds buckets per-route request latency in seconds: from
// cache-hit territory (sub-ms) through full-sweep plans (seconds).
var httpLatencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metrics is the service's observability surface: fleet-wide counters
// with stable names (the CI smoke greps advisor_shed_total) and a
// per-route latency histogram, all registered in one obs.Registry served
// at /metrics.
type metrics struct {
	reg *obs.Registry

	requests  *obs.Counter // every /plan request, before any gate
	admitted  *obs.Counter // granted a work-queue slot (owns a computation)
	shed      *obs.Counter // rejected 429: work queue full
	coalesced *obs.Counter // joined an identical in-flight computation
	cacheHits *obs.Counter // answered from the LRU
	degraded  *obs.Counter // answered with the fallback plan past budget
	panics    *obs.Counter // handler or planner panics converted to 500s
	inflight  *obs.Gauge   // requests currently inside the handler

	// routeLatency holds one advisor_http_<route>_seconds histogram per
	// served route, registered up front so /metrics names are stable.
	routeLatency map[string]*obs.Histogram
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	routes := map[string]*obs.Histogram{}
	for _, route := range []string{"plan", "healthz", "readyz", "metrics"} {
		routes[route] = reg.Histogram("advisor_http_"+route+"_seconds",
			"request latency for /"+route+" in seconds", httpLatencyBounds)
	}
	return &metrics{
		reg:       reg,
		requests:  reg.Counter("advisor_requests_total", "plan requests received"),
		admitted:  reg.Counter("advisor_admitted_total", "requests granted a work-queue slot"),
		shed:      reg.Counter("advisor_shed_total", "requests shed with 429 (work queue full)"),
		coalesced: reg.Counter("advisor_coalesced_total", "requests coalesced onto an identical in-flight plan"),
		cacheHits: reg.Counter("advisor_cache_hits_total", "requests answered from the result cache"),
		degraded:  reg.Counter("advisor_degraded_total", "requests answered with the degraded fallback plan"),
		panics:    reg.Counter("advisor_panics_total", "panics converted to typed 500s"),
		inflight:  reg.Gauge("advisor_inflight", "requests currently being served"),

		routeLatency: routes,
	}
}
