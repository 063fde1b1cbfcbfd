// Command loganalyze characterizes a job log the way the paper's Section
// 3-4 describes its machines: counts, size marginals, runtime and estimate
// distributions, estimate accuracy, arrival burstiness, and offered load.
//
// Usage:
//
//	loganalyze -trace log.swf [-cpus 4662]
//	loganalyze -machine "Blue Mountain" [-seed 1] [-scale 0.25]   # synthetic
//
// Synthetic logs are streamed through one-pass estimators, so -scale may
// grow the log far past paper size (-scale 5 on Blue Mountain is ~1M
// jobs) without materializing it; the two distribution medians are then
// P² estimates (within a few percent). -fit needs the whole log in
// memory and switches the synthetic path back to batch generation.
// -scale resizes the log by the experiments harness's rule
// (testbed.System.Scaled); a nonpositive -scale is rejected with exit
// status 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"interstitial"
	"interstitial/internal/machine"
	"interstitial/internal/stats"
	"interstitial/internal/trace"
	"interstitial/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loganalyze: ")
	tracePath := flag.String("trace", "", "SWF log to analyze")
	cpus := flag.Int("cpus", 0, "machine size for offered-load normalization (0 = use SWF MaxProcs)")
	machineName := flag.String("machine", "", "analyze a synthetic log for this machine instead of a trace")
	seed := flag.Int64("seed", 1, "synthetic log seed")
	scale := flag.Float64("scale", 1.0, "synthetic log scale, applied as the experiments harness does")
	fit := flag.Bool("fit", false, "also fit a workload.Profile to the log (for synthesizing similar logs)")
	flag.Parse()
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "loganalyze: -scale %g must be positive\n", *scale)
		flag.Usage()
		os.Exit(2)
	}

	var jobs []*interstitial.Job
	var c stats.Characterization
	n := *cpus
	switch {
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		var h trace.Header
		h, jobs, err = trace.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			n = h.MaxProcs
		}
		c = stats.Characterize(jobs, n)
		fmt.Printf("Trace %s (%s):\n", *tracePath, h.Computer)
	case *machineName != "":
		m, err := interstitial.MachineByName(*machineName)
		if err != nil {
			log.Fatal(err)
		}
		m = m.Scaled(*scale)
		if n == 0 {
			n = m.Workload.Machine.CPUs
		}
		if *fit {
			// Fitting needs the whole log resident; generate in batch.
			jobs = workload.MustGenerate(m.Workload, *seed)
			c = stats.Characterize(jobs, n)
		} else {
			// Stream the log through the one-pass characterizer: memory
			// stays O(1) in the job count at any -scale.
			st, err := workload.NewStream(m.Workload, *seed)
			if err != nil {
				log.Fatal(err)
			}
			sc := stats.NewStreamCharacterizer(n)
			for {
				j, ok := st.Next()
				if !ok {
					break
				}
				sc.Add(j)
			}
			c = sc.Characterization()
		}
		fmt.Printf("Synthetic %s log (seed %d, scale %g):\n", m.Name, *seed, *scale)
	default:
		log.Fatal("need -trace or -machine")
	}

	if err := c.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *fit {
		mc := machine.Config{Name: "fitted", CPUs: n, ClockGHz: 1}
		if *machineName != "" {
			if m, err := interstitial.MachineByName(*machineName); err == nil {
				mc = m.Workload.Machine
			}
		}
		p, err := workload.FitProfile(jobs, mc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nFitted workload.Profile (pass to workload.Generate to synthesize similar logs):")
		fmt.Printf("  Days: %.1f  Jobs: %d  TargetUtil: %.3f\n", p.Days, p.Jobs, p.TargetUtil)
		fmt.Printf("  Users: %d  Groups: %d\n", p.Users, p.Groups)
		fmt.Printf("  RuntimeMedianH: %.2f  RuntimeMeanH: %.2f  LongJobFrac: %.3f (max %.0fh)\n",
			p.RuntimeMedianH, p.RuntimeMeanH, p.LongJobFrac, p.LongJobMaxHours)
		fmt.Printf("  SmallWeight: %.2f  MaxCPUFrac: %.2f  Burstiness: %.2f\n",
			p.SmallWeight, p.MaxCPUFrac, p.Burstiness)
	}
}
