package main

import (
	"fmt"
	"net/url"
	"sort"
	"time"

	"interstitial/internal/advisor"
	"interstitial/internal/obs"
	"interstitial/internal/span"
)

// coldPlans is how many uncached questions each advisor pass times alone.
const coldPlans = 18

// verifyPlans is how many answered ladder questions are re-planned on a
// fresh Core after each par pass.
const verifyPlans = 20

// coldQuery is the i-th cold question of a seed: Blue Mountain, at sizes
// evenly spaced from 1.5 to 9.8 petacycles plus a small seeded jitter.
// Ladder sizes are 0.50 + 0.04·k petacycles and cold sizes 0.52 + 0.04·m,
// so a cold question never matches a ladder question and the ladder never
// finds one cached. One machine keeps the sweep costs continuous (they
// grow with size), so their median does not fall into the gap between two
// machines' costs.
func coldQuery(seed int64, i int) string {
	jitter := int((uint64(seed)*2654435761 + uint64(i)*40503) % 5)
	return planQuery("Blue Mountain", float64(52+4*(25+12*i+jitter))/100)
}

// advisorPass serves advisord through Handler().ServeHTTP, in-process and
// without sockets. Set-up warms the planning labs with one question per
// machine. The timed phase asks the cold questions one at a time and, on
// a par pass, then offers the
// seeded open-loop ladder. Afterwards, outside the timing, answered
// questions are re-planned on a fresh Core and must match byte for byte.
func advisorPass(pc *passCtx) {
	srv := advisor.NewServer(advisor.Config{Spans: pc.rec})
	h := srv.Handler()
	for _, m := range advisorMachines {
		if o := serve(h, planQuery(m, 0.3)); o.class != outOK {
			pc.failf("warm-up %s: outcome %d", m, o.class)
		}
	}

	// The server has no worker count of its own: a ser pass runs on one core.
	cores := procs
	if pc.serial() {
		cores = 1
	}
	pc.begin(cores)
	timedFrom := time.Now().UnixMicro()
	res := pc.res
	// The pass's wall is the median cold plan: its questions grow in cost
	// with size, so one sample per question would measure the sizes, not
	// the noise.
	var cold []float64
	for i := 0; i < coldPlans; i++ {
		q := coldQuery(pc.seed, i)
		sp := pc.span("advisor.ServeHTTP", uint64(i))
		t0 := time.Now()
		o := serve(h, q)
		cold = append(cold, time.Since(t0).Seconds())
		sp.Str("query", q).End(pc.micros())
		res.Ops++
		if o.class != outOK {
			res.Failed++
			pc.failf("cold plan %s: outcome %d", q, o.class)
		}
	}
	res.Wall = median(cold)
	var sched []arrival
	var outs []outcome
	var before, after obs.Snapshot
	if !pc.serial() {
		sched = schedule(pc.seed, ladder)
		before = srv.Metrics().Snapshot()
		sp := pc.span("loadgen.ladder", 0)
		outs = runOpenLoop(h, sched, keyQuery)
		sp.End(pc.micros())
		for _, st := range ladder {
			res.WorkSecs += st.dur.Seconds()
		}
		after = srv.Metrics().Snapshot()
		advisorLayers(res.Layers, before, after)
	}
	pc.end()
	stageLayers(res.Layers, pc.rec.Spans(), timedFrom)
	if sched == nil {
		return
	}

	res.Steps = tally(sched, outs, ladder)
	if err := checkAccounting(res.Steps, before, after); err != nil {
		pc.failf("accounting: %v", err)
	}
	for _, o := range outs {
		res.Ops++
		switch {
		case o.class == outError:
			res.Failed++
			pc.failf("ladder request failed")
		case o.class == outOK && o.lat <= latencyLimit:
			res.Work++
		}
	}
	verifyAnswers(pc, sched, outs)
}

// advisorLayers records the server's own counters over the ladder.
func advisorLayers(l map[string]float64, before, after obs.Snapshot) {
	delta := func(name string) float64 {
		a, _ := after.Get(name)
		b, _ := before.Get(name)
		return a.Value - b.Value
	}
	req := delta("advisor_requests_total")
	l["advisor.cache_hit_ratio"] = ratio(delta("advisor_cache_hits_total"), req)
	l["advisor.coalesce_ratio"] = ratio(delta("advisor_coalesced_total"), req)
	l["advisor.shed_frac"] = ratio(delta("advisor_shed_total"), req)
	l["advisor.degraded_frac"] = ratio(delta("advisor_degraded_total"), req)
}

// checkAccounting balances the ladder's books two ways: the generator's
// offered count equals its ok + shed + degraded + error answers, and the
// server counted exactly the offered requests, sheds and degraded answers,
// and filed every request as a shed, a cache hit, a coalesced join or an
// admitted computation.
func checkAccounting(steps []stepResult, before, after obs.Snapshot) error {
	var offered, ok, shed, degraded, errs int
	for _, s := range steps {
		offered += s.Offered
		ok += s.OK
		shed += s.Shed
		degraded += s.Degraded
		errs += s.Errors
	}
	if offered != ok+shed+degraded+errs {
		return fmt.Errorf("offered %d != ok %d + shed %d + degraded %d + error %d", offered, ok, shed, degraded, errs)
	}
	delta := func(name string) int {
		a, _ := after.Get(name)
		b, _ := before.Get(name)
		return int(a.Value - b.Value)
	}
	req, sShed, sDeg := delta("advisor_requests_total"), delta("advisor_shed_total"), delta("advisor_degraded_total")
	if req != offered || sShed != shed || sDeg != degraded {
		return fmt.Errorf("server counted %d requests, %d shed, %d degraded; generator offered %d, saw %d shed, %d degraded",
			req, sShed, sDeg, offered, shed, degraded)
	}
	if filed := sShed + delta("advisor_cache_hits_total") + delta("advisor_coalesced_total") + delta("advisor_admitted_total"); filed != req {
		return fmt.Errorf("server filed %d of %d requests", filed, req)
	}
	return nil
}

// stageLayers splits the traced requests answered after since (Unix µs)
// by stage, from the server's span trees: each stage's median duration,
// plan.wait's self time (less any degraded fallback inside it), and
// render, the root's self time.
func stageLayers(l map[string]float64, spans []span.Span, since int64) {
	roots := map[span.ID]*span.Span{}
	for i := range spans {
		if s := &spans[i]; s.Parent == 0 && s.Name == "http.plan" && s.Start >= since {
			roots[s.ID] = s
		}
	}
	if len(roots) == 0 {
		return
	}
	stage := map[string][]float64{}
	children := map[span.ID]map[string]int64{}
	for i := range spans {
		s := &spans[i]
		if roots[s.Parent] == nil {
			continue
		}
		if children[s.Parent] == nil {
			children[s.Parent] = map[string]int64{}
		}
		children[s.Parent][s.Name] += s.Duration()
	}
	for id, root := range roots {
		c := children[id]
		for _, name := range []string{"admission", "cache", "coalesce"} {
			if d, ok := c[name]; ok {
				stage[name] = append(stage[name], float64(d))
			}
		}
		if d, ok := c["plan.wait"]; ok {
			stage["plan.wait"] = append(stage["plan.wait"], float64(d-c["plan.degraded"])/1000)
		}
		self := root.Duration() - c["admission"] - c["cache"] - c["coalesce"] - c["plan.wait"]
		stage["render"] = append(stage["render"], float64(self)/1000)
	}
	set := func(name string, xs []float64, v float64) {
		if len(xs) > 0 {
			l[name] = v
		}
	}
	set("advisor.admission_us.p50", stage["admission"], median(stage["admission"]))
	set("advisor.cache_us.p50", stage["cache"], median(stage["cache"]))
	set("advisor.coalesce_us.p50", stage["coalesce"], median(stage["coalesce"]))
	set("advisor.plan_wait_ms.p50", stage["plan.wait"], median(stage["plan.wait"]))
	set("advisor.plan_wait_ms.p95", stage["plan.wait"], tail(stage["plan.wait"], 0.95))
	set("advisor.render_ms.p50", stage["render"], median(stage["render"]))
}

// verifyAnswers checks the served plans: every OK answer to one question
// carries the same text, and the verifyPlans smallest answered questions
// (the cheapest to sweep again) re-planned on a fresh Core reproduce it
// byte for byte.
func verifyAnswers(pc *passCtx, sched []arrival, outs []outcome) {
	served := map[int]string{}
	for i, o := range outs {
		if o.class != outOK {
			continue
		}
		k := sched[i].key
		if prev, ok := served[k]; ok && prev != o.text {
			pc.failf("question %s answered with two different plans", keyQuery(k))
		}
		served[k] = o.text
	}
	var answered []int
	for k := range served {
		answered = append(answered, k)
	}
	sort.Ints(answered) // keys order by size first: key = 3*sizeIndex + machine
	if len(answered) > verifyPlans {
		answered = answered[:verifyPlans]
	}
	core := advisor.NewCore(advisor.CoreConfig{})
	for _, k := range answered {
		u, err := url.Parse(keyQuery(k))
		if err == nil {
			var req advisor.Request
			if req, err = advisor.ParseQuery(u.Query()); err == nil {
				var p *advisor.Plan
				if p, err = core.Plan(req); err == nil && p.Text != served[k] {
					pc.failf("served plan for %s differs from a fresh Core's", keyQuery(k))
				}
			}
		}
		if err != nil {
			pc.failf("re-plan %s: %v", keyQuery(k), err)
		}
	}
}
