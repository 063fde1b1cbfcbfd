package advisor

import "testing"

// BenchmarkAdvisorSweep times one uncached Core.Plan on a warm Blue
// Mountain lab at the default planning scale: the full 24-shape sweep and
// render, with the baseline already memoized. This is the cold-plan path
// an advisord request pays on a result-cache miss.
func BenchmarkAdvisorSweep(b *testing.B) {
	req := Request{Machine: "Blue Mountain", PetaCycles: 5}
	req.Canonicalize()
	if err := req.Validate(); err != nil {
		b.Fatal(err)
	}
	c := NewCore(CoreConfig{})
	if _, err := c.Plan(req); err != nil { // warm the lab
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Plan(req); err != nil {
			b.Fatal(err)
		}
	}
}
