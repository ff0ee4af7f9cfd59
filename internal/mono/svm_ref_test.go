package mono

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference SVM below is the straightforward implementation the
// production kernel in svm.go was derived from: one RFF row per sample,
// separate margin / shrink / update passes per SGD step, and one
// feature computation per Predict. It is kept as the test oracle — every
// learned weight, gamma and prediction of the production kernel must be
// bit-identical to it. It shares only the unchanged helpers (fitStats,
// initFeatures, normP) with production.

// refStandardize z-scores the embedding with the Fit-time statistics.
func refStandardize(s *SVM, emb []float64) []float64 {
	if s.mean == nil {
		return emb
	}
	out := make([]float64, len(emb))
	for j, x := range emb {
		if j < len(s.mean) {
			out[j] = (x - s.mean[j]) / s.std[j]
		}
	}
	return out
}

// refMedianGamma sets the RBF width by the median pairwise squared
// distance heuristic over a subsample of standardized embeddings.
func refMedianGamma(s *SVM, samples []Sample, rng *rand.Rand) {
	limit := 60
	if len(samples) < limit {
		limit = len(samples)
	}
	idx := rng.Perm(len(samples))[:limit]
	var d2s []float64
	for a := 0; a < limit; a++ {
		for b := a + 1; b < limit; b++ {
			ea := refStandardize(s, samples[idx[a]].Embedding)
			eb := refStandardize(s, samples[idx[b]].Embedding)
			d2 := 0.0
			for j := range ea {
				dx := ea[j] - eb[j]
				d2 += dx * dx
			}
			d2s = append(d2s, d2)
		}
	}
	if len(d2s) == 0 {
		return
	}
	sort.Float64s(d2s)
	med := d2s[len(d2s)/2]
	if med > 1e-9 {
		s.gamma = 1 / med
	}
}

// refRFF maps a (raw) embedding into the random-Fourier feature space,
// standardizing first.
func refRFF(s *SVM, emb []float64) []float64 {
	emb = refStandardize(s, emb)
	z := make([]float64, s.numFeatures)
	norm := math.Sqrt(2 / float64(s.numFeatures))
	for i := range z {
		dot := s.phase[i]
		w := s.omega[i]
		for j, x := range emb {
			if j < len(w) {
				dot += w[j] * x
			}
		}
		z[i] = norm * math.Cos(dot)
	}
	return z
}

// refMargin computes the decision value f(x) = we . rff(h) + wp*p + b.
func refMargin(s *SVM, emb []float64, p int) float64 {
	z := refRFF(s, emb)
	f := s.b + s.wp*s.normP(p)
	for i, zi := range z {
		f += s.we[i] * zi
	}
	return f
}

// refPredict maps the margin through the scaled sigmoid.
func refPredict(s *SVM, emb []float64, p int) float64 {
	if s.we == nil {
		return 0.5
	}
	return 1 / (1 + math.Exp(-s.PlattScale*refMargin(s, emb, p)))
}

// refFit is the reference projected subgradient descent on the primal
// hinge-loss objective. A fresh SVM must be passed: like the original,
// it starts the median heuristic from whatever gamma s holds.
func refFit(s *SVM, samples []Sample) error {
	if err := validate(samples); err != nil {
		return err
	}
	d := len(samples[0].Embedding)
	s.fitStats(samples)
	rngGamma := rand.New(rand.NewSource(s.seed + 2))
	refMedianGamma(s, samples, rngGamma)
	s.initFeatures(d)
	s.we = make([]float64, s.numFeatures)
	s.wp, s.b = 0, 0

	// Precompute feature vectors.
	zs := make([][]float64, len(samples))
	ps := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, sm := range samples {
		zs[i] = refRFF(s, sm.Embedding)
		ps[i] = s.normP(sm.Parallelism)
		ys[i] = -1
		if sm.Label == 1 {
			ys[i] = 1
		}
	}

	n0, n1 := 0.0, 0.0
	for _, y := range ys {
		if y > 0 {
			n1++
		} else {
			n0++
		}
	}
	posWeight := 1.0
	if n1 > 0 {
		posWeight = math.Min(math.Max(n0/n1, 1), 20)
	}

	rng := rand.New(rand.NewSource(s.seed + 1))
	order := rng.Perm(len(samples))
	t := 0
	avgWe := make([]float64, s.numFeatures)
	var avgWp, avgB float64
	avgCount := 0
	avgFrom := s.Epochs / 2
	for ep := 0; ep < s.Epochs; ep++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			t++
			lr := 1 / (s.Lambda * float64(t+100))
			f := s.b + s.wp*ps[i]
			for k, zk := range zs[i] {
				f += s.we[k] * zk
			}
			// L2 shrinkage.
			for k := range s.we {
				s.we[k] *= 1 - lr*s.Lambda
			}
			s.wp *= 1 - lr*s.Lambda
			if ys[i]*f < 1 {
				w := 1.0
				if ys[i] > 0 {
					w = posWeight
				}
				for k, zk := range zs[i] {
					s.we[k] += lr * w * ys[i] * zk
				}
				s.wp += lr * w * ys[i] * ps[i]
				s.b += lr * w * ys[i] * 0.1
			}
			// Monotonic projection (Eq. 5: wp <= 0).
			if s.wp > 0 {
				s.wp = 0
			}
		}
		if ep >= avgFrom {
			for k := range avgWe {
				avgWe[k] += s.we[k]
			}
			avgWp += s.wp
			avgB += s.b
			avgCount++
		}
	}
	if avgCount > 0 {
		for k := range avgWe {
			s.we[k] = avgWe[k] / float64(avgCount)
		}
		s.wp = avgWp / float64(avgCount)
		s.b = avgB / float64(avgCount)
		if s.wp > 0 {
			s.wp = 0
		}
	}
	return nil
}

// refMinNonBottleneck is MinNonBottleneck's binary search over
// refPredict.
func refMinNonBottleneck(s *SVM, emb []float64, pmax int, threshold float64) int {
	if pmax < 1 {
		return 1
	}
	if refPredict(s, emb, pmax) >= threshold {
		return pmax
	}
	lo, hi := 1, pmax
	for lo < hi {
		mid := (lo + hi) / 2
		if refPredict(s, emb, mid) < threshold {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// embeddingSharing is how a synthetic training set reuses embeddings.
type embeddingSharing int

const (
	// sharedSlices reuses each embedding slice for about four samples,
	// as the tuner's warm-up and feedback samples do.
	sharedSlices embeddingSharing = iota
	// equalCopies repeats each embedding's content about four times in
	// separately allocated slices, as a restored tuner's samples do.
	equalCopies
	// allDistinct gives every sample its own embedding.
	allDistinct
)

func (e embeddingSharing) String() string {
	return [...]string{"shared", "copies", "distinct"}[e]
}

// reuseSamples builds n labeled samples over embeddings of dimension
// dim, each distinct embedding used by about four samples (unless
// sharing is allDistinct) at different parallelisms. Labels follow a
// per-embedding need threshold with both classes always present.
func reuseSamples(rng *rand.Rand, n, dim, pmax int, sharing embeddingSharing) []Sample {
	distinct := (n + 3) / 4
	if sharing == allDistinct {
		distinct = n
	}
	embs := make([][]float64, distinct)
	needs := make([]int, distinct)
	for i := range embs {
		embs[i] = make([]float64, dim)
		for j := range embs[i] {
			embs[i][j] = rng.NormFloat64()
		}
		needs[i] = 1 + rng.Intn(pmax)
	}
	out := make([]Sample, n)
	for i := range out {
		e := i % distinct
		emb := embs[e]
		if sharing == equalCopies {
			emb = append([]float64(nil), emb...)
		}
		p := 1 + rng.Intn(pmax)
		label := 0
		if p < needs[e] {
			label = 1
		}
		out[i] = Sample{Embedding: emb, Parallelism: p, Label: label}
	}
	out[0].Label, out[len(out)-1].Label = 0, 1
	return out
}

// assertSameSVM fails unless got and want hold bit-identical learned
// parameters.
func assertSameSVM(t *testing.T, got, want *SVM) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.gamma, want.gamma) {
		t.Fatalf("gamma %v, reference %v", got.gamma, want.gamma)
	}
	if !same(got.wp, want.wp) || !same(got.b, want.b) {
		t.Fatalf("wp, b = %v, %v; reference %v, %v", got.wp, got.b, want.wp, want.b)
	}
	if len(got.we) != len(want.we) {
		t.Fatalf("%d feature weights, reference %d", len(got.we), len(want.we))
	}
	for k := range got.we {
		if !same(got.we[k], want.we[k]) {
			t.Fatalf("we[%d] = %v, reference %v", k, got.we[k], want.we[k])
		}
	}
}

func TestSVMMatchesReference(t *testing.T) {
	const dim, pmax = 32, 100
	for _, sharing := range []embeddingSharing{sharedSlices, equalCopies, allDistinct} {
		for _, n := range []int{2, 37, 1000} {
			for _, epochs := range []int{0, 1, 2, 60} {
				rng := rand.New(rand.NewSource(int64(n*100 + epochs)))
				samples := reuseSamples(rng, n, dim, pmax, sharing)
				got, want := NewSVM(pmax, 7), NewSVM(pmax, 7)
				got.Epochs, want.Epochs = epochs, epochs
				if err := got.Fit(samples); err != nil {
					t.Fatal(err)
				}
				if err := refFit(want, samples); err != nil {
					t.Fatal(err)
				}
				assertSameSVM(t, got, want)
				probes := append([]Sample(nil), samples[:min(n, 20)]...)
				probes = append(probes, reuseSamples(rng, 20, dim, pmax, allDistinct)...)
				for _, pr := range probes {
					for _, p := range []int{1, 2, pmax / 2, pmax} {
						g, w := got.Predict(pr.Embedding, p), refPredict(want, pr.Embedding, p)
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%v |T|=%d epochs=%d: Predict(p=%d) = %v, reference %v", sharing, n, epochs, p, g, w)
						}
					}
				}
			}
		}
	}
}

func TestMinNonBottleneckMatchesReference(t *testing.T) {
	const dim, pmax = 32, 100
	rng := rand.New(rand.NewSource(3))
	samples := reuseSamples(rng, 400, dim, pmax, sharedSlices)
	got, want := NewSVM(pmax, 5), NewSVM(pmax, 5)
	if err := got.Fit(samples); err != nil {
		t.Fatal(err)
	}
	if err := refFit(want, samples); err != nil {
		t.Fatal(err)
	}
	probes := append(reuseSamples(rng, 100, dim, pmax, allDistinct), samples[:100]...)
	searched := 0
	for _, pr := range probes {
		for _, threshold := range []float64{0.2, 0.4, 0.5, 0.6, 0.8} {
			for _, pm := range []int{0, 1, 7, pmax} {
				g := MinNonBottleneck(got, pr.Embedding, pm, threshold)
				w := refMinNonBottleneck(want, pr.Embedding, pm, threshold)
				if g != w {
					t.Fatalf("MinNonBottleneck(pmax=%d, threshold=%v) = %d, reference %d", pm, threshold, g, w)
				}
				searched++
			}
		}
	}
	if searched < 500 {
		t.Fatalf("only %d searches compared", searched)
	}
}

// TestSVMFitIgnoresPreviousFit pins that a fit is a pure function of
// (training set, seed): when more than half of the sampled embedding
// pairs coincide, the median heuristic has no usable width and the fit
// must fall back to the constructor's gamma, not to whatever the
// previous fit on this model chose.
func TestSVMFitIgnoresPreviousFit(t *testing.T) {
	const dim, pmax = 8, 100
	rng := rand.New(rand.NewSource(11))
	first := reuseSamples(rng, 200, dim, pmax, allDistinct)
	common, rare := make([]float64, dim), make([]float64, dim)
	for j := range common {
		common[j], rare[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	var second []Sample
	for i := 0; i < 200; i++ {
		emb := common
		if i%10 == 9 {
			emb = rare
		}
		second = append(second, Sample{Embedding: emb, Parallelism: 1 + i%pmax, Label: i % 2})
	}

	reused := NewSVM(pmax, 1)
	if err := reused.Fit(first); err != nil {
		t.Fatal(err)
	}
	if err := reused.Fit(second); err != nil {
		t.Fatal(err)
	}
	fresh := NewSVM(pmax, 1)
	if err := fresh.Fit(second); err != nil {
		t.Fatal(err)
	}
	assertSameSVM(t, reused, fresh)
	for _, emb := range [][]float64{common, rare} {
		for p := 1; p <= pmax; p += 11 {
			if a, b := reused.Predict(emb, p), fresh.Predict(emb, p); a != b {
				t.Fatalf("Predict(p=%d) after a previous fit = %v, fresh model %v", p, a, b)
			}
		}
	}
}
