// Command birminator simulates a supercomputer running a native job log —
// optionally with interstitial computing — and reports the paper's
// metrics. It is the CLI face of the library's simulation stack (named for
// the paper's Big Iron Resource Management simulator).
//
// Usage:
//
//	birminator -machine "Blue Mountain" [-replay log.swf] [-seed 1]
//	           [-interstitial-cpus 32] [-interstitial-sec1ghz 120]
//	           [-utilcap 0.95] [-project-jobs 0] [-project-start-h 100]
//	           [-trace file [-trace-sample N]]
//
// With no -replay, a calibrated synthetic log is generated. With
// -interstitial-cpus 0 the run is native-only. -project-jobs > 0 runs a
// finite project instead of continual submission. -trace records every
// scheduler decision of the run and writes it to the given file as JSONL
// (the schema cmd/tracescope validates and reports on), keeping at most
// -trace-sample events (0 = all). Invalid flags (unknown machine,
// negative seed, utilcap outside [0,1], ...) are rejected up front with
// exit status 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"interstitial"
	"interstitial/internal/job"
	"interstitial/internal/stats"
	"interstitial/internal/trace"
	"interstitial/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("birminator: ")
	machineName := flag.String("machine", "Blue Mountain", `machine: "Ross", "Blue Mountain", or "Blue Pacific"`)
	replayPath := flag.String("replay", "", "SWF native log to replay (default: synthesize one)")
	seed := flag.Int64("seed", 1, "seed for synthetic logs")
	scale := flag.Float64("scale", 1.0, "shrink the synthetic log by this factor, as the experiments harness does")
	iCPUs := flag.Int("interstitial-cpus", 0, "CPUs per interstitial job (0 = native-only run)")
	iSec := flag.Float64("interstitial-sec1ghz", 120, "interstitial job length in seconds at 1 GHz")
	utilCap := flag.Float64("utilcap", 0, "suppress interstitial submission above this utilization (0 = unlimited)")
	projJobs := flag.Int("project-jobs", 0, "finite project size in jobs (0 = continual)")
	projStartH := flag.Float64("project-start-h", 0, "project start time in hours")
	dump := flag.String("dump", "", "write the simulated schedule (native + interstitial records, with waits) as SWF to this file")
	tracePath := flag.String("trace", "", "record every scheduler decision and write them to this file as JSONL")
	traceSample := flag.Int("trace-sample", 0, "max events kept in the trace, head/tail sampled (0 = keep all)")
	flag.Parse()

	usageError := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "birminator: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	m, err := interstitial.MachineByName(*machineName)
	switch {
	case err != nil:
		usageError("%v", err)
	case *seed < 0:
		usageError("-seed %d is negative", *seed)
	case *scale <= 0 || *scale > 1:
		usageError("-scale %g out of (0,1]", *scale)
	case *iCPUs < 0:
		usageError("-interstitial-cpus %d is negative", *iCPUs)
	case *iCPUs > 0 && *iSec <= 0:
		usageError("-interstitial-sec1ghz %g must be positive", *iSec)
	case *utilCap < 0 || *utilCap > 1:
		usageError("-utilcap %g out of [0,1]", *utilCap)
	case *projJobs < 0:
		usageError("-project-jobs %d is negative", *projJobs)
	case *projStartH < 0:
		usageError("-project-start-h %g is negative", *projStartH)
	case *traceSample < 0:
		usageError("-trace-sample %d is negative", *traceSample)
	case *traceSample > 0 && *tracePath == "":
		usageError("-trace-sample without -trace")
	}
	m = m.Scaled(*scale)

	var natives []*interstitial.Job
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			log.Fatal(err)
		}
		_, natives, err = trace.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		// Jobs wider than the machine would wedge the queue forever.
		kept := natives[:0]
		dropped := 0
		for _, j := range natives {
			if j.CPUs > m.Workload.Machine.CPUs {
				dropped++
				continue
			}
			kept = append(kept, j)
		}
		natives = kept
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "birminator: dropped %d jobs wider than the %d-CPU machine\n", dropped, m.Workload.Machine.CPUs)
		}
	} else {
		natives = interstitial.CalibratedLog(m, *seed)
	}

	horizon := m.Workload.Duration()
	var dumpJobs []*interstitial.Job
	defer func() {
		if *dump == "" || dumpJobs == nil {
			return
		}
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		h := trace.Header{Computer: m.Name, Note: "birminator simulated schedule", MaxProcs: m.Workload.Machine.CPUs}
		if err := trace.Write(f, h, dumpJobs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule written to %s (%d records)\n", *dump, len(dumpJobs))
	}()

	// Decision tracing: one tracer for the single run each mode performs.
	var collector *interstitial.TraceCollector
	var tracer *interstitial.Tracer
	if *tracePath != "" {
		collector = interstitial.NewTraceCollector(*traceSample)
	}
	newTracer := func(mode string) *interstitial.Tracer {
		if collector == nil {
			return nil
		}
		return collector.Tracer(mode+"/"+m.Name, m.Name, m.Workload.Machine.CPUs)
	}

	switch {
	case *iCPUs <= 0:
		tracer = newTracer("native")
		util, err := interstitial.RunNativeTraced(m, natives, tracer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("native-only: %d jobs, native utilization %.3f\n", len(natives), util)
		report(m, natives, nil, horizon)
		dumpJobs = natives

	case *projJobs > 0:
		spec := interstitial.ProjectSpec{
			PetaCycles: float64(*projJobs) * float64(*iCPUs) * *iSec * 1e9 / 1e15,
			KJobs:      *projJobs,
			CPUsPerJob: *iCPUs,
		}
		tracer = newTracer("project")
		res, err := interstitial.RunProjectTraced(context.Background(), m, natives, spec,
			interstitial.Time(*projStartH*3600), tracer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("project %v: makespan %.1f h\n", spec, res.Makespan.HoursF())
		report(m, res.Natives, res.Jobs, horizon)
		dumpJobs = append(append([]*interstitial.Job{}, res.Natives...), res.Jobs...)

	default:
		spec := interstitial.JobSpec{CPUs: *iCPUs, Runtime: m.Seconds1GHz(*iSec)}
		tracer = newTracer("continual")
		res, err := interstitial.RunContinualOpts(m, natives, spec,
			interstitial.ContinualOpts{UtilCap: *utilCap, Tracer: tracer})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("continual %dCPU × %ds (cap %.2f): %d interstitial jobs\n",
			spec.CPUs, spec.Runtime, *utilCap, len(res.Jobs))
		report(m, res.Natives, res.Jobs, horizon)
		dumpJobs = append(append([]*interstitial.Job{}, res.Natives...), res.Jobs...)
	}

	if collector != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracing.WriteJSONL(f, collector, nil); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d events emitted (%d dropped) -> %s\n",
			tracer.Emitted(), tracer.Dropped(), *tracePath)
	}
}

// report prints the standard metric block for a finished run.
func report(m interstitial.Machine, natives, inter []*interstitial.Job, horizon interstitial.Time) {
	imp := stats.ImpactOf(natives, inter, m.Workload.Machine.CPUs, horizon)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "overall utilization\t%.3f\n", imp.OverallUtil)
	fmt.Fprintf(tw, "native utilization\t%.3f\n", imp.NativeUtil)
	fmt.Fprintf(tw, "native wait median/mean\t%s / %s\n", stats.FormatSeconds(imp.WaitAll.Median), stats.FormatSeconds(imp.WaitAll.Mean))
	fmt.Fprintf(tw, "5%% largest wait median/mean\t%s / %s\n", stats.FormatSeconds(imp.WaitBig.Median), stats.FormatSeconds(imp.WaitBig.Mean))
	fmt.Fprintf(tw, "native EF median/mean\t%.2f / %.2f\n", imp.EFAll.Median, imp.EFAll.Mean)
	if len(inter) > 0 {
		iw := stats.Summarize(stats.Waits(inter, job.Interstitial))
		fmt.Fprintf(tw, "interstitial jobs\t%d\n", len(inter))
		fmt.Fprintf(tw, "interstitial wait median\t%s\n", stats.FormatSeconds(iw.Median))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
