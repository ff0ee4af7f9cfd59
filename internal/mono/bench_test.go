package mono

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmark inputs match the tuner's: 32-dimensional embeddings, pmax
// 100, and training sets in which each embedding serves about four
// samples at different parallelisms, as warm-up and feedback samples do.
const benchDim, benchPMax = 32, 100

// sinkInt keeps benchmarked results live.
var sinkInt int

// BenchmarkSVMFit measures one from-scratch SVM fit at training-set
// sizes spanning the tuner's |T| (warm-up size about 1000, capped at
// MaxTrainingSet = 2000).
func BenchmarkSVMFit(b *testing.B) {
	for _, n := range []int{250, 1000, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			samples := reuseSamples(rand.New(rand.NewSource(1)), n, benchDim, benchPMax, sharedSlices)
			m := NewSVM(benchPMax, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Fit(samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinNonBottleneck measures one operator's binary search for
// its minimum non-bottleneck parallelism on a model fitted to 1000
// samples, cycling over 64 operator embeddings.
func BenchmarkMinNonBottleneck(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	samples := reuseSamples(rng, 1000, benchDim, benchPMax, sharedSlices)
	ops := reuseSamples(rng, 64, benchDim, benchPMax, allDistinct)
	for _, name := range []string{"svm", "xgb", "nn"} {
		b.Run(name, func(b *testing.B) {
			m, err := New(name, benchPMax, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Fit(samples); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkInt = MinNonBottleneck(m, ops[i%len(ops)].Embedding, benchPMax, 0.4)
			}
		})
	}
}
