// Omniscient: quantify the price of fallibility. The same interstitial
// project is (a) packed omniscient — perfect knowledge of native starts
// and finishes, natives untouched — and (b) co-simulated fallibly, where
// the controller sees only gross user runtime estimates. The paper's
// Table 2 vs Table 4 comparison in one program.
package main

import (
	"fmt"
	"log"

	"interstitial"
)

func main() {
	m := interstitial.BlueMountain().Scaled(0.125)

	logJobs := interstitial.CalibratedLog(m, 5)
	util := interstitial.RunNative(m, logJobs)

	project := interstitial.ProjectSpec{PetaCycles: 3, KJobs: 800, CPUsPerJob: 32}
	fmt.Printf("%s (util %.3f), project: %v\n\n", m.Name, util, project)

	theoryH := interstitial.TheoreticalMakespan(m, project.PetaCycles) / 3600
	fmt.Printf("theory      P/(nC(1-U)):  %7.1f h\n", theoryH)

	var omniSum, fallSum float64
	const reps = 5
	for i := 0; i < reps; i++ {
		start := m.Workload.Duration() / 16 * interstitial.Time(i+1)
		omni, err := interstitial.PlanOmniscient(m, logJobs, project, start)
		if err != nil {
			log.Fatal(err)
		}
		fall, err := interstitial.RunProject(m, logJobs, project, start)
		if err != nil {
			log.Fatal(err)
		}
		omniSum += omni.HoursF()
		fallSum += fall.Makespan.HoursF()
		fmt.Printf("start %5.1fh  omniscient: %7.1f h   fallible: %7.1f h\n",
			start.HoursF(), omni.HoursF(), fall.Makespan.HoursF())
	}
	fmt.Printf("\naverages     omniscient: %7.1f h   fallible: %7.1f h (+%.0f%%)\n",
		omniSum/reps, fallSum/reps, (fallSum/omniSum-1)*100)
	fmt.Println("\nThe gap is the cost of planning against user estimates that typically")
	fmt.Println("overestimate runtimes by many multiples (paper Section 4.3).")
}
