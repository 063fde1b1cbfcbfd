// Swfreplay: round-trip a workload through the Standard Workload Format
// and replay it. This is the integration path for feeding *real* machine
// logs (e.g. from the Parallel Workloads Archive) to the simulator instead
// of synthetic ones: write your trace as SWF, point the reader at it, and
// every experiment in the library runs against it.
package main

import (
	"bytes"
	"fmt"
	"log"

	"interstitial"
	"interstitial/internal/trace"
	"interstitial/internal/workload"
)

func main() {
	m := interstitial.BlueMountain().Scaled(0.125)

	// 1. Produce a log (stand-in for a real site trace).
	original := workload.MustGenerate(m.Workload, 99)

	// 2. Serialize to SWF — what you would do with your own accounting
	// data — and read it back.
	var buf bytes.Buffer
	h := trace.Header{Computer: m.Name, Note: "swfreplay example", MaxProcs: m.Workload.Machine.CPUs}
	if err := trace.Write(&buf, h, original); err != nil {
		log.Fatal(err)
	}
	swfBytes := buf.Len()
	gotH, replayed, err := trace.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF round trip: %d jobs, %d bytes, computer %q\n", len(replayed), swfBytes, gotH.Computer)

	// 3. Replay the trace natively, then with continual interstitial
	// computing on top.
	base := interstitial.RunNative(m, replayed)
	spec := interstitial.JobSpec{CPUs: 32, Runtime: m.Seconds1GHz(120)}
	res, err := interstitial.RunContinual(m, replayed, spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native-only utilization:     %.3f\n", base)
	fmt.Printf("with interstitial computing: %.3f overall / %.3f native (%d filler jobs)\n",
		res.OverallUtil, res.NativeUtil, len(res.Jobs))

	// 4. The replay must be faithful: same job set, same arrival pattern.
	if len(replayed) != len(original) {
		log.Fatalf("round trip lost jobs: %d vs %d", len(replayed), len(original))
	}
	for i := range original {
		if original[i].Submit != replayed[i].Submit || original[i].CPUs != replayed[i].CPUs {
			log.Fatalf("job %d corrupted in round trip", i)
		}
	}
	fmt.Println("round-trip fidelity check: OK")
}
