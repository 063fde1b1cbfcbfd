// Capacityplan: a facility administrator deciding how aggressively to
// admit interstitial jobs. Reproduces the paper's Section 4.3.2.2
// trade-off in miniature: sweep the submission utilization cap and watch
// interstitial throughput, overall utilization, and native wait medians
// move against each other.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"interstitial"
)

func main() {
	m := interstitial.BlueMountain().Scaled(0.125)

	logJobs := interstitial.CalibratedLog(m, 11)
	baseUtil := interstitial.RunNative(m, logJobs)
	baseMedian := medianWait(logJobs)

	spec := interstitial.JobSpec{CPUs: 32, Runtime: m.Seconds1GHz(120)}
	fmt.Printf("%s: native util %.3f, native median wait %.0fs\n", m.Name, baseUtil, baseMedian)
	fmt.Printf("interstitial jobs: %d CPUs × %ds\n\n", spec.CPUs, spec.Runtime)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cap\tinterstitial jobs\toverall util\tnative util\tnative median wait (s)")
	fmt.Fprintf(tw, "native only\t0\t%.3f\t%.3f\t%.0f\n", baseUtil, baseUtil, baseMedian)
	for _, cap := range []float64{0.90, 0.95, 0.98, 0} {
		res, err := interstitial.RunContinual(m, logJobs, spec, cap)
		if err != nil {
			log.Fatal(err)
		}
		label := "unlimited"
		if cap > 0 {
			label = fmt.Sprintf("util < %.0f%%", cap*100)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.0f\n",
			label, len(res.Jobs), res.OverallUtil, res.NativeUtil, medianWait(res.Natives))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: a 90% cap sacrifices a large slice of interstitial throughput")
	fmt.Println("to keep native waits near their baseline; 98% recovers most throughput")
	fmt.Println("at a modest native cost (paper Table 8).")
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
