package mono

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
)

// SVM is a soft-margin support vector machine over
// [RFF(embedding), parallelism] with the monotonic constraint wp <= 0 of
// Eq. 5 in the paper. The RBF kernel on the embedding is approximated
// with random Fourier features so the primal problem can be solved with
// projected subgradient descent (Pegasos-style); the parallelism term
// stays linear so the constraint is a simple projection.
type SVM struct {
	pmax int
	seed int64

	// Random Fourier feature parameters (fixed at construction).
	numFeatures int
	gamma       float64
	omega       [][]float64 // numFeatures x embeddingDim, lazily sized
	phase       []float64

	// Standardization statistics of the embedding dimensions, estimated
	// at Fit time. RBF kernels need comparable feature scales.
	mean []float64
	std  []float64

	// Learned parameters.
	we []float64 // weights over RFF features
	wp float64   // parallelism weight, constrained <= 0
	b  float64

	// Hyperparameters.
	Lambda float64 // L2 regularization
	Epochs int
	// PlattScale sharpens the sigmoid mapping margin -> probability.
	PlattScale float64
}

// defaultGamma is the RBF width a fit uses when its training set gives
// the median heuristic nothing to measure.
const defaultGamma = 0.5

// NewSVM creates an untrained monotonic SVM.
func NewSVM(pmax int, seed int64) *SVM {
	return &SVM{
		pmax:        pmax,
		seed:        seed,
		numFeatures: 128,
		gamma:       defaultGamma,
		Lambda:      1e-4,
		Epochs:      60,
		PlattScale:  2.0,
	}
}

// Name implements Model.
func (s *SVM) Name() string { return "svm" }

// Monotonic implements Model.
func (s *SVM) Monotonic() bool { return true }

// initFeatures draws the random Fourier features for embedding dim d.
func (s *SVM) initFeatures(d int) {
	rng := rand.New(rand.NewSource(s.seed))
	s.omega = make([][]float64, s.numFeatures)
	s.phase = make([]float64, s.numFeatures)
	scale := math.Sqrt(2 * s.gamma)
	for i := range s.omega {
		s.omega[i] = make([]float64, d)
		for j := range s.omega[i] {
			s.omega[i][j] = rng.NormFloat64() * scale
		}
		s.phase[i] = 2 * math.Pi * rng.Float64()
	}
}

// standardizeInto writes the embedding z-scored with the Fit-time
// statistics into dst (len(emb) long); dimensions beyond the fitted ones
// read zero.
func (s *SVM) standardizeInto(dst, emb []float64) {
	for j, x := range emb {
		dst[j] = 0
		if j < len(s.mean) {
			dst[j] = (x - s.mean[j]) / s.std[j]
		}
	}
}

// fitStats estimates per-dimension mean/std over the training set.
func (s *SVM) fitStats(samples []Sample) {
	d := len(samples[0].Embedding)
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	for _, sm := range samples {
		for j, x := range sm.Embedding {
			s.mean[j] += x
		}
	}
	n := float64(len(samples))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, sm := range samples {
		for j, x := range sm.Embedding {
			dx := x - s.mean[j]
			s.std[j] += dx * dx
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] < 1e-6 {
			s.std[j] = 1
		}
	}
}

// medianGamma returns the RBF width by the median pairwise squared
// distance heuristic over a subsample of standardized embeddings. When
// the subsample has no usable spread (fewer than two samples, or more
// than half of the pairs coincide) it returns the constructor's width,
// so every fit is a function of its training set alone.
func (s *SVM) medianGamma(samples []Sample, rng *rand.Rand) float64 {
	limit := min(60, len(samples))
	idx := rng.Perm(len(samples))[:limit]
	d := len(samples[0].Embedding)
	xs := make([]float64, limit*d)
	for a, i := range idx {
		s.standardizeInto(xs[a*d:(a+1)*d], samples[i].Embedding)
	}
	d2s := make([]float64, 0, limit*(limit-1)/2)
	for a := 0; a < limit; a++ {
		ea := xs[a*d : (a+1)*d]
		for b := a + 1; b < limit; b++ {
			eb := xs[b*d : (b+1)*d]
			d2 := 0.0
			for j := range ea {
				dx := ea[j] - eb[j]
				d2 += dx * dx
			}
			d2s = append(d2s, d2)
		}
	}
	if len(d2s) == 0 {
		return defaultGamma
	}
	sort.Float64s(d2s)
	if med := d2s[len(d2s)/2]; med > 1e-9 {
		return 1 / med
	}
	return defaultGamma
}

// rffInto maps a (raw) embedding into the random-Fourier feature space,
// writing numFeatures values into z; x is len(emb) scratch for the
// standardized embedding. Four features are summed side by side, each
// in its own accumulator and in dimension order, so the independent add
// chains overlap without changing any feature's rounding.
func (s *SVM) rffInto(z, x, emb []float64) {
	s.standardizeInto(x, emb)
	if len(s.omega) > 0 && len(x) > len(s.omega[0]) {
		x = x[:len(s.omega[0])] // dimensions the features never saw
	}
	norm := math.Sqrt(2 / float64(s.numFeatures))
	i := 0
	for ; i+4 <= len(z); i += 4 {
		w0, w1, w2, w3 := s.omega[i][:len(x)], s.omega[i+1][:len(x)], s.omega[i+2][:len(x)], s.omega[i+3][:len(x)]
		d0, d1, d2, d3 := s.phase[i], s.phase[i+1], s.phase[i+2], s.phase[i+3]
		for j, xj := range x {
			d0 += w0[j] * xj
			d1 += w1[j] * xj
			d2 += w2[j] * xj
			d3 += w3[j] * xj
		}
		z[i], z[i+1], z[i+2], z[i+3] = norm*math.Cos(d0), norm*math.Cos(d1), norm*math.Cos(d2), norm*math.Cos(d3)
	}
	for ; i < len(z); i++ {
		w := s.omega[i][:len(x)]
		dot := s.phase[i]
		for j, xj := range x {
			dot += w[j] * xj
		}
		z[i] = norm * math.Cos(dot)
	}
}

// featureTable computes the RFF row of each distinct embedding content
// once. Samples with bit-identical embeddings share a row whether or not
// they share a slice (a restored tuner's samples never do). It returns
// the rows, numFeatures values each in first-seen order, and every
// sample's row offset into them.
func (s *SVM) featureTable(samples []Sample) (rows []float64, offset []int) {
	d, nf := len(samples[0].Embedding), s.numFeatures
	offset = make([]int, len(samples))
	seen := make(map[string]int)
	key := make([]byte, 8*d)
	var firsts []int // the first sample of each distinct content
	for i, sm := range samples {
		for j, x := range sm.Embedding {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(x))
		}
		r, ok := seen[string(key)]
		if !ok {
			r = len(firsts) * nf
			seen[string(key)] = r
			firsts = append(firsts, i)
		}
		offset[i] = r
	}
	rows = make([]float64, len(firsts)*nf)
	x := make([]float64, d)
	for r, i := range firsts {
		s.rffInto(rows[r*nf:(r+1)*nf], x, samples[i].Embedding)
	}
	return rows, offset
}

func (s *SVM) normP(p int) float64 {
	if s.pmax <= 0 {
		return 0
	}
	return float64(p) / float64(s.pmax)
}

// marginAt computes the decision value f(x) = we . z + wp*p + b for an
// embedding's feature row z.
func (s *SVM) marginAt(z []float64, p int) float64 {
	f := s.b + s.wp*s.normP(p)
	for i, zi := range z {
		f += s.we[i] * zi
	}
	return f
}

// probAt returns Predict(emb, ·): the embedding's feature row is
// computed once, and each call only sums the parallelism-dependent
// margin.
func (s *SVM) probAt(emb []float64) func(p int) float64 {
	if s.we == nil {
		return func(int) float64 { return 0.5 }
	}
	z := make([]float64, s.numFeatures)
	s.rffInto(z, make([]float64, len(emb)), emb)
	return func(p int) float64 {
		return 1 / (1 + math.Exp(-s.PlattScale*s.marginAt(z, p)))
	}
}

// Fit implements Model with projected subgradient descent on the primal
// hinge-loss objective. Labels are mapped to y in {-1, +1} with +1 =
// bottleneck; the projection wp = min(wp, 0) enforces the monotonic
// constraint after every update.
//
// Each SGD step makes one pass over the feature weights: it shrinks and
// updates we and, in the same loop, sums the next sample's margin. The
// operations and their order per weight are those of separate margin,
// shrink and update passes, so the result is bit-identical to them.
func (s *SVM) Fit(samples []Sample) error {
	if err := validate(samples); err != nil {
		return err
	}
	d := len(samples[0].Embedding)
	s.fitStats(samples)
	s.gamma = s.medianGamma(samples, rand.New(rand.NewSource(s.seed+2)))
	s.initFeatures(d)

	nf := s.numFeatures
	rows, offset := s.featureTable(samples)
	ps := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, sm := range samples {
		ps[i] = s.normP(sm.Parallelism)
		ys[i] = -1
		if sm.Label == 1 {
			ys[i] = 1
		}
	}
	row := func(i int) []float64 { return rows[offset[i] : offset[i]+nf] }

	// Cost-sensitive hinge: weight the minority bottleneck class up so
	// that imbalanced histories (over-provisioned runs dominate) do not
	// collapse the model to "never a bottleneck".
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
	// Polyak averaging over the second half of training damps the
	// variance of the stochastic subgradient path, keeping repeated
	// refits (Algorithm 2 refits every iteration) stable.
	we := make([]float64, nf)
	var wp, b float64
	lambda := s.Lambda
	avgWe := make([]float64, nf)
	var avgWp, avgB float64
	avgCount := 0
	avgFrom := s.Epochs / 2
	for ep := 0; ep < s.Epochs; ep++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		// f is the margin of the step's sample; each step sums the next
		// step's while it updates we.
		first := order[0]
		f := b + wp*ps[first]
		for k, zk := range row(first) {
			f += we[k] * zk
		}
		for j, i := range order {
			t++
			lr := 1 / (lambda * float64(t+100))
			shrink := 1 - lr*lambda // L2 shrinkage
			z := row(i)[:len(we)]
			// wp and b do not read we: update them first so the next
			// margin can start from them.
			wp *= shrink
			hinge := ys[i]*f < 1
			var g float64
			if hinge {
				w := 1.0
				if ys[i] > 0 {
					w = posWeight
				}
				g = lr * w * ys[i]
				wp += g * ps[i]
				b += g * 0.1
			}
			// Monotonic projection (Eq. 5: wp <= 0).
			if wp > 0 {
				wp = 0
			}
			// The epoch's last step sums a margin nobody reads.
			next := i
			if j+1 < len(order) {
				next = order[j+1]
			}
			zn := row(next)[:len(we)]
			f = b + wp*ps[next]
			if hinge {
				for k := range we {
					wk := we[k]*shrink + g*z[k]
					we[k] = wk
					f += wk * zn[k]
				}
			} else {
				for k := range we {
					wk := we[k] * shrink
					we[k] = wk
					f += wk * zn[k]
				}
			}
		}
		if ep >= avgFrom {
			for k := range avgWe {
				avgWe[k] += we[k]
			}
			avgWp += wp
			avgB += b
			avgCount++
		}
	}
	if avgCount > 0 {
		for k := range avgWe {
			we[k] = avgWe[k] / float64(avgCount)
		}
		wp = avgWp / float64(avgCount)
		b = avgB / float64(avgCount)
		if wp > 0 {
			wp = 0
		}
	}
	s.we, s.wp, s.b = we, wp, b
	return nil
}

// Predict implements Model, mapping the margin through a scaled sigmoid.
func (s *SVM) Predict(emb []float64, p int) float64 {
	return s.probAt(emb)(p)
}
