package federation

import (
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/testbed"
)

// TestMergeReusesInterstitialRecords runs a 4-shard metered fleet and
// counts the distinct interstitial records that reach the merge. The
// merge hands each one back to its shard's controller, so a shard needs
// only about as many records as it holds between two barriers, not one
// per job: fewer than a tenth as many as the jobs retired.
func TestMergeReusesInterstitialRecords(t *testing.T) {
	all := testbed.All()
	machines := make([]Machine, 4)
	for i := range machines {
		sys := all[i%len(all)].Scaled(0.05)
		machines[i] = Machine{Profile: sys.Workload, NewPolicy: sys.NewPolicy}
	}
	pol, err := ParsePolicy("work-stealing:batch=4,victim=max")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Machines: machines,
		Policy:   pol,
		Unit:     UnitSpec{CPUs: 16, Seconds1GHz: 300},
		Demand:   0.3,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := make(map[*job.Job]bool)
	for _, sh := range f.shards {
		sh.sm.SetRetire(func(j *job.Job) {
			if j.Class == job.Interstitial {
				records[j] = true
			}
			sh.buf = append(sh.buf, j)
		})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	retired := f.Stats().InterstDone
	if retired == 0 || int64(len(records))*10 >= retired {
		t.Fatalf("%d distinct records for %d retired interstitial jobs; want under a tenth", len(records), retired)
	}
}
