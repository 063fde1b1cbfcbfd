// Command tracegen generates a synthetic native job log for one of the
// three ASCI machines and writes it in Standard Workload Format.
//
// Usage:
//
//	tracegen -machine "Blue Mountain" [-seed 1] [-scale 1] [-calibrate] [-o log.swf]
//
// -scale resizes the log by the experiments harness's rule
// (testbed.System.Scaled); a nonpositive -scale is rejected with exit
// status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"interstitial"
	"interstitial/internal/trace"
	"interstitial/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	machineName := flag.String("machine", "Blue Mountain", `machine profile: "Ross", "Blue Mountain", or "Blue Pacific"`)
	seed := flag.Int64("seed", 1, "generator seed")
	scale := flag.Float64("scale", 1.0, "resize log duration and job count by this factor, as the experiments harness does")
	calibrate := flag.Bool("calibrate", false, "run the calibration loop so simulated utilization matches Table 1 (slower)")
	out := flag.String("o", "-", "output file (default stdout)")
	flag.Parse()

	m, err := interstitial.MachineByName(*machineName)
	if err != nil {
		log.Fatal(err)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -scale %g must be positive\n", *scale)
		flag.Usage()
		os.Exit(2)
	}
	m = m.Scaled(*scale)

	var jobs []*interstitial.Job
	if *calibrate {
		jobs = interstitial.CalibratedLog(m, *seed)
	} else {
		jobs = workload.MustGenerate(m.Workload, *seed)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	h := trace.Header{
		Computer: m.Name,
		Note:     fmt.Sprintf("synthetic interstitial-computing log, seed %d, scale %g", *seed, *scale),
		MaxProcs: m.Workload.Machine.CPUs,
	}
	if err := trace.Write(w, h, jobs); err != nil {
		log.Fatal(err)
	}
}
