package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"interstitial/internal/federation"
	"interstitial/internal/rng"
	"interstitial/internal/span"
	"interstitial/internal/testbed"
	"interstitial/internal/tracing"
)

// FedRow is one (routing policy, fleet size) cell of the federation study.
type FedRow struct {
	Policy      string
	Fleet       int // simulated machines
	OverallUtil float64
	NativeUtil  float64
	Units       int64   // interstitial work units routed
	Done        int64   // interstitial jobs completed fleet-wide
	Steals      int64   // units moved by barrier steals
	Migrations  int64   // locality home moves
	UnitLatH    float64 // mean routed-unit latency (grant to finish), hours
	NativeWaitH float64 // mean native queue wait, hours
	Digest      uint64  // retirement-stream digest (determinism witness)
}

// FederationResult is the fleet-federation study: a single interstitial
// stream routed across a fleet of simulated machines, swept over routing
// policies and fleet sizes. Utilization tells whether routing finds the
// spare cycles; the digest column is the cross-worker determinism witness
// CI greps for.
type FederationResult struct {
	Unit   federation.UnitSpec
	Demand float64
	Rows   []FedRow
}

// fedPolicies is the default policy grid, or the one policy Options.Route
// restricts to.
func fedPolicies(route string) []string {
	if route != "" {
		return []string{route}
	}
	return []string{"random", "round-robin", "least-loaded",
		"locality:spread=4", "work-stealing:batch=4,victim=max"}
}

// fedFleets is the default fleet-size grid, or the one size
// Options.FleetSize restricts to.
func fedFleets(n int) []int {
	if n > 0 {
		return []int{n}
	}
	return []int{2, 8, 32}
}

// Federation runs the routed-fleet study on the lab. Each cell builds an
// independent fleet (machines cycling the paper's three profiles at the
// lab's scale, seeds derived per cell), routes a demand stream worth 30%
// of fleet capacity per epoch, and retires through the streaming path —
// memory stays O(active jobs) at any fleet size. Shards advance on the
// lab's shared worker pool, so cells and shards compose under one
// parallelism bound; rendered output is byte-identical at any Workers.
func Federation(l *Lab) (*FederationResult, error) {
	o := l.Options()
	policies := fedPolicies(o.Route)
	for _, p := range policies {
		if _, err := federation.ParsePolicy(p); err != nil {
			return nil, err
		}
	}
	fleets := fedFleets(o.FleetSize)
	res := &FederationResult{
		Unit:   federation.UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand: 0.3,
		Rows:   make([]FedRow, len(policies)*len(fleets)),
	}
	all := testbed.All()
	cols := len(fleets)
	l.fanoutSpanned(len(res.Rows), func(cell int, cs *span.Active) {
		pi, fi := cell/cols, cell%cols
		n := fleets[fi]
		machines := make([]federation.Machine, n)
		totalCPUs := 0
		for i := range machines {
			sys := all[i%len(all)].Scaled(o.Scale)
			machines[i] = federation.Machine{Profile: sys.Workload, NewPolicy: sys.NewPolicy}
			totalCPUs += sys.Workload.Machine.CPUs
		}
		pol, err := federation.ParsePolicy(policies[pi])
		if err != nil {
			panic(err) // pre-validated above
		}
		var tr *tracing.Tracer
		if l.trace != nil {
			tr = l.trace.Tracer(fmt.Sprintf("%s/fed%02d-%s", l.owner(), n, pol.Name()),
				"fleet", totalCPUs)
		}
		cs.Str("policy", pol.Name()).Attr("fleet", int64(n))
		fl, err := federation.New(federation.Config{
			Machines: machines,
			Policy:   pol,
			Unit:     res.Unit,
			Demand:   res.Demand,
			Seed:     rng.DeriveSeed(o.Seed, uint64(cell)),
			Runner:   func(k int, fn func(int)) { l.shieldedForEach(k, fn) },
			Tracer:   tr,
			Span:     cs,
			Ctx:      l.ctx,
		})
		if err != nil {
			panic(err)
		}
		if err := fl.Run(); err != nil {
			panic(err)
		}
		for i := 0; i < fl.NumShards(); i++ {
			l.observeSim(fl.Sim(i))
		}
		st := fl.Stats()
		m := l.met
		m.fedUnits.Add(uint64(st.Units))
		m.fedSteals.Add(uint64(st.StolenUnits))
		m.fedMigrations.Add(uint64(st.Migrations))
		for _, s := range st.Shards {
			m.fedShardUtil.Observe(s.Utilization)
		}
		overall, native := fl.Utilization()
		res.Rows[cell] = FedRow{
			Policy:      pol.Name(),
			Fleet:       n,
			OverallUtil: overall,
			NativeUtil:  native,
			Units:       st.Units,
			Done:        st.InterstDone,
			Steals:      st.StolenUnits,
			Migrations:  st.Migrations,
			UnitLatH:    fl.UnitLatency().Mean / 3600,
			NativeWaitH: fl.NativeWait().Mean / 3600,
			Digest:      fl.Digest(),
		}
	})
	return res, nil
}

// Render writes the study in the repo's table style. Every row ends with
// its retirement digest, which the CI federation-smoke step extracts and
// compares across worker counts.
func (r *FederationResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Fleet Federation. One Interstitial Stream Routed Across Simulated Machines")
	fmt.Fprintf(w, "(unit %d CPUs x %.0f s@1GHz, demand %.2f of fleet capacity; latency and wait in hours)\n",
		r.Unit.CPUs, r.Unit.Seconds1GHz, r.Demand)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tfleet\tutil\tnative\tunits\tdone\tstolen\tmigr\tlat(h)\twait(h)\t")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%d\t%d\t%d\t%d\t%.2f\t%.2f\tdigest %016x\n",
			row.Policy, row.Fleet, row.OverallUtil, row.NativeUtil,
			row.Units, row.Done, row.Steals, row.Migrations,
			row.UnitLatH, row.NativeWaitH, row.Digest)
	}
	return tw.Flush()
}

// CSV dumps the grid for plotting.
func (r *FederationResult) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,fleet,overall_util,native_util,units,done,stolen,migrations,unit_latency_h,native_wait_h,digest"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%q,%d,%.4f,%.4f,%d,%d,%d,%d,%.4f,%.4f,%016x\n",
			row.Policy, row.Fleet, row.OverallUtil, row.NativeUtil,
			row.Units, row.Done, row.Steals, row.Migrations,
			row.UnitLatH, row.NativeWaitH, row.Digest); err != nil {
			return err
		}
	}
	return nil
}
