// Paramsweep: a researcher sizing a parameter-sweep project for spare
// cycles. The paper's guidelines say interstitial jobs should be small and
// short; this example quantifies that advice by sweeping CPUs/job and job
// length for a fixed total work budget and reporting the resulting
// makespans (omniscient packing, so runs are fast and comparable).
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"interstitial"
)

func main() {
	m := interstitial.BlueMountain().Scaled(0.125)

	logJobs := interstitial.CalibratedLog(m, 7)
	util := interstitial.RunNative(m, logJobs)
	fmt.Printf("%s at native utilization %.3f; sizing a 2 Pc sweep\n\n", m.Name, util)

	const petaCycles = 2.0
	start := m.Workload.Duration() / 8

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CPUs/job\tjob sec@1GHz\tjobs\tmakespan (h)\tvs best")
	type rowT struct {
		cpus, k int
		sec     float64
		ms      float64
	}
	var rows []rowT
	best := 1e18
	for _, cpus := range []int{1, 8, 32, 128} {
		for _, sec1GHz := range []float64{120, 960} {
			// jobs = P / (cpus * sec@1GHz * 1e9)
			k := int(petaCycles*1e15/(float64(cpus)*sec1GHz*1e9) + 0.5)
			p := interstitial.ProjectSpec{PetaCycles: petaCycles, KJobs: k, CPUsPerJob: cpus}
			ms, err := interstitial.PlanOmniscient(m, logJobs, p, start)
			if err != nil {
				log.Fatal(err)
			}
			h := ms.HoursF()
			rows = append(rows, rowT{cpus, k, sec1GHz, h})
			if h < best {
				best = h
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.1f\t%+.0f%%\n", r.cpus, r.sec, r.k, r.ms, (r.ms/best-1)*100)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGuideline (paper Section 5): prefer small jobs — fewer CPUs/job pack")
	fmt.Println("into more interstices (less breakage); shorter jobs bound the worst-")
	fmt.Println("case delay they can impose on a native job.")
}
