// Quickstart: generate a synthetic Blue Mountain log, run it natively,
// then drop a small interstitial project into the stream and compare its
// makespan against the paper's analytic law.
package main

import (
	"fmt"
	"log"

	"interstitial"
)

func main() {
	// Shrink the testbed so the example runs in a couple of seconds.
	m := interstitial.BlueMountain().Scaled(0.125)

	fmt.Printf("Machine: %s — %d CPUs @ %.3f GHz (%.3f TCycles)\n",
		m.Name, m.Workload.Machine.CPUs, m.Workload.Machine.ClockGHz, m.Workload.Machine.TeraCycles())

	// A calibrated native log reproduces the machine's recorded
	// utilization; RunNative simulates it through the LSF-style queue.
	logJobs := interstitial.CalibratedLog(m, 42)
	util := interstitial.RunNative(m, logJobs)
	fmt.Printf("Native log: %d jobs over %.1f days, utilization %.3f (paper: %.3f)\n",
		len(logJobs), m.Workload.Days, util, m.Workload.TargetUtil)

	// An interstitial project: 1.2 peta-cycles as 2,000 identical 32-CPU
	// jobs (about 94 s at 1 GHz each — a classic parameter sweep).
	project := interstitial.ProjectSpec{PetaCycles: 1.2, KJobs: 2000, CPUsPerJob: 32}
	start := m.Workload.Duration() / 10

	res, err := interstitial.RunProject(m, logJobs, project, start)
	if err != nil {
		log.Fatal(err)
	}
	// P/(nC(1-U)) is the makespan if spare capacity were spread evenly
	// at the log's mean utilization. It is not a bound: a project dropped
	// into a utilization trough finishes sooner.
	ideal := interstitial.TheoreticalMakespan(m, project.PetaCycles)
	fmt.Printf("\nProject %v dropped at t=%.1fh:\n", project, start.HoursF())
	fmt.Printf("  fallible makespan:    %.1f h (%d jobs)\n", res.Makespan.HoursF(), len(res.Jobs))
	fmt.Printf("  constant-U ideal:     %.1f h  (P/(nC(1-U)))\n", ideal/3600)
	fmt.Printf("  breakage factor (32): %.3f\n", interstitial.Breakage(m, 32))

	// How did the natives fare? Compare the same log with and without the
	// project.
	var delayed int
	for i, j := range res.Natives {
		if j.Start > logJobs[i].Start {
			delayed++
		}
	}
	fmt.Printf("\nNative impact: %d of %d native jobs started later than in the\n"+
		"baseline run (estimate error lets interstitial jobs poach briefly).\n",
		delayed, len(res.Natives))
}
