// Preemption: the library's main extension past the paper. Non-preemptive
// interstitial jobs (the paper's model) can delay a native job by up to
// one full interstitial runtime; preemptive ones yield immediately, and
// checkpointing decides how much harvested work the kill costs. This
// example runs the three variants on the same log and prints the
// trade-off triangle: native protection vs harvest vs wasted work.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"interstitial"
	"interstitial/internal/job"
	"interstitial/internal/workload"
)

func main() {
	sys := interstitial.BlueMountain().Scaled(0.125)
	logJobs := workload.MustGenerate(sys.Workload, 21)

	// Long interstitial jobs (960 s@1GHz = ~1h wallclock) make the
	// non-preemptive damage visible.
	spec := interstitial.JobSpec{CPUs: 32, Runtime: sys.Seconds1GHz(960)}
	fmt.Printf("%s, continual %d-CPU × %ds interstitial jobs\n\n", sys.Name, spec.CPUs, spec.Runtime)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tkills\twasted CPU·h\tharvested CPU·h\tnative median wait (s)")
	for _, v := range []struct {
		label string
		pre   *interstitial.Preemption
	}{
		{"non-preemptive (paper)", nil},
		{"preempt, no checkpoint", &interstitial.Preemption{}},
		{"preempt, checkpoint 60s", &interstitial.Preemption{CheckpointEvery: 60}},
	} {
		res, err := interstitial.RunContinualOpts(sys, logJobs, spec, interstitial.ContinualOpts{Preempt: v.pre})
		if err != nil {
			log.Fatal(err)
		}
		// Every finished record, fresh or the continuation of a killed
		// one, completes exactly one work unit; a killed record none.
		units := 0
		for _, j := range res.Jobs {
			if j.State == job.Finished {
				units++
			}
		}
		harvested := float64(units) * float64(spec.CPUs) * float64(spec.Runtime)
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\n",
			v.label, res.KilledJobs, res.WastedCPUSeconds/3600, harvested/3600, medianWait(res.Natives))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: preemption zeroes the native delay the paper accepted as the")
	fmt.Println("cost of long filler jobs; checkpointing makes the kills nearly free.")
}

func medianWait(jobs []*interstitial.Job) float64 {
	var ws []float64
	for _, j := range jobs {
		if w := j.Wait(); w >= 0 {
			ws = append(ws, float64(w))
		}
	}
	if len(ws) == 0 {
		return 0
	}
	sort.Float64s(ws)
	return ws[len(ws)/2]
}
