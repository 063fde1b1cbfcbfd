package federation

import (
	"math"
	"math/rand"
	"testing"

	"interstitial/internal/job"
	"interstitial/internal/sim"
)

// foldBytewise is plain FNV-1a over each word's 8 bytes, least
// significant first: the reference the zero-run fold must equal.
func foldBytewise(h uint64, ws ...uint64) uint64 {
	for _, w := range ws {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime64
			w >>= 8
		}
	}
	return h
}

// TestDigestFoldMatchesBytewise requires the fold to equal byte-wise
// FNV-1a on the edges of the zero-run shortcut (no zero bytes, all zero,
// a single low or high nonzero byte) and on random words whose zero runs
// have every length, one word at a time and as one record.
func TestDigestFoldMatchesBytewise(t *testing.T) {
	unset := int64(-1) // an unset Start or Finish, as Fold widens it
	words := []uint64{0, 1, 0xff, 0x100, 1 << 56, uint64(unset), math.MaxUint64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		words = append(words, rng.Uint64()>>(8*rng.Intn(8)))
	}
	for _, w := range words {
		d := NewDigest()
		d.fold(w)
		if want := foldBytewise(fnvOffset64, w); uint64(d) != want {
			t.Fatalf("fold(%#x) = %016x, byte-wise %016x", w, uint64(d), want)
		}
	}
	d := NewDigest()
	d.fold(words...)
	if want := foldBytewise(fnvOffset64, words...); uint64(d) != want {
		t.Fatalf("fold of %d words = %016x, byte-wise %016x", len(words), uint64(d), want)
	}
}

// digestSink keeps BenchmarkDigestFold's result live.
var digestSink Digest64

// BenchmarkDigestFold measures folding one retired record — ten words,
// the merge barrier's per-job digest cost.
func BenchmarkDigestFold(b *testing.B) {
	j := job.NewInterstitial(123456, 16, 5400, 86400)
	j.Start, j.Finish, j.State = 90000, 95400, job.Finished
	d := NewDigest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Fold(i&63, j)
	}
	digestSink = d
}

// TestGrantFIFOMatchesFlat runs random grant bursts, retirements and
// steals on two run-length FIFOs and on two plain slices of instants,
// the one-entry-per-unit FIFO the runs replaced: every pop must return
// the same instant, and a steal must move the same newest instants.
func TestGrantFIFOMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q [2]grantFIFO
	var flat [2][]sim.Time
	now := sim.Time(0)
	for step := 0; step < 20000; step++ {
		a := rng.Intn(2)
		switch rng.Intn(4) {
		case 0: // a barrier's grants, sometimes at a repeated instant
			if rng.Intn(3) > 0 {
				now += 3600
			}
			for n := rng.Intn(6); n > 0; n-- {
				q[a].push(now, 1)
				flat[a] = append(flat[a], now)
			}
		case 1, 2: // retirements
			for n := rng.Intn(5); n > 0; n-- {
				got, ok := q[a].pop()
				want, wok := sim.Time(0), len(flat[a]) > 0
				if wok {
					want, flat[a] = flat[a][0], flat[a][1:]
				}
				if got != want || ok != wok {
					t.Fatalf("step %d: pop = %d, %v; flat %d, %v", step, got, ok, want, wok)
				}
			}
		case 3: // a steal of the newest units into the other FIFO
			units := rng.Intn(8) + 1
			q[a].moveNewest(units, &q[1-a])
			k := len(flat[a]) - min(units, len(flat[a]))
			flat[1-a] = append(flat[1-a], flat[a][k:]...)
			flat[a] = flat[a][:k]
		}
	}
	for a := range q {
		for _, want := range flat[a] {
			if got, ok := q[a].pop(); !ok || got != want {
				t.Fatalf("drain: pop = %d, %v; flat %d", got, ok, want)
			}
		}
		if _, ok := q[a].pop(); ok {
			t.Fatal("drain: the FIFO outlived its flat twin")
		}
	}
}
