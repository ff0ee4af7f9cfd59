package main

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/ged"
	"github.com/streamtune/streamtune/internal/service"
)

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different plans", w)
		}
		c, err := generate(w, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Tenants, c.Tenants) {
			t.Errorf("%s: seeds 7 and 8 gave the same tenants", w)
		}
		// Whole blocks: every seed offers each job equally often.
		count := func(p *plan) map[string]int {
			n := map[string]int{}
			for _, tn := range p.Tenants {
				n[tn.Template]++
			}
			return n
		}
		if !reflect.DeepEqual(count(a), count(c)) {
			t.Errorf("%s: seeds 7 and 8 gave different job mixes: %v vs %v", w, count(a), count(c))
		}
	}
}

func TestGeneratedDocumentsAreValid(t *testing.T) {
	for _, w := range workloads {
		p, err := generate(w, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range p.Tenants {
			g, err := compileSpec(tn.Spec)
			if err != nil {
				t.Fatalf("%s %s: spec: %v", w, tn.ID, err)
			}
			seen := map[string]bool{ged.Fingerprint(g): true}
			for i, pp := range tn.Procs[1:] {
				if g, err = applyMutation(g, pp.Mutation); err != nil {
					t.Fatalf("%s %s: mutation %d: %v", w, tn.ID, i+1, err)
				}
				seen[ged.Fingerprint(g)] = true
			}
			if w == "onboard" && len(seen) != len(tn.Procs) {
				t.Errorf("%s: onboard processes reuse a shape: %d shapes for %d processes", tn.ID, len(seen), len(tn.Procs))
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{5}, 0.9); got != 5 {
		t.Errorf("percentile of one value = %v, want 5", got)
	}
	if got := mean(xs); got != 2.5 {
		t.Errorf("mean(%v) = %v, want 2.5", xs, got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of an empty sample = %v, want 0", got)
	}
}

func TestRateChangeKeepsFingerprint(t *testing.T) {
	templates, err := experiments.FlinkWorkloads(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range templates {
		g := w.Graph.Clone()
		w.SetRate(g, 2)
		mut, err := rateChange(g, w.Units, 7.5)
		if err != nil {
			t.Fatal(err)
		}
		next, err := mut.Apply(g)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if ged.Fingerprint(next) != ged.Fingerprint(g) {
			t.Errorf("%s: rate change moved the fingerprint", w.Name)
		}
		if next.NumOperators() != g.NumOperators() || next.NumEdges() != g.NumEdges() {
			t.Errorf("%s: rate change altered the topology", w.Name)
		}
		for _, op := range g.Operators() {
			got := next.Operator(op.ID)
			if got == nil {
				t.Fatalf("%s: operator %q lost", w.Name, op.ID)
			}
			want := *op
			if op.Type == dag.Source {
				want.SourceRate = w.Units[op.ID] * 7.5
			}
			if *got != want {
				t.Errorf("%s: operator %q = %+v, want %+v", w.Name, op.ID, *got, want)
			}
		}
	}
}

// stallBackend converges every process at its first recommendation and
// stalls the first registration it sees.
type stallBackend struct {
	stall time.Duration
	once  sync.Once
}

func (b *stallBackend) Register(context.Context, string, []byte, engine.Config) error {
	b.once.Do(func() { time.Sleep(b.stall) })
	return nil
}

func (b *stallBackend) Recommend(_ context.Context, id string) (*service.Recommendation, error) {
	return &service.Recommendation{JobID: id, Done: true}, nil
}

func (b *stallBackend) Observe(context.Context, string, *engine.JobMetrics) (bool, error) {
	return true, nil
}
func (b *stallBackend) Mutate(context.Context, string, []byte) error { return nil }
func (b *stallBackend) Release(context.Context, string) error        { return nil }

func TestProcessTimedFromDue(t *testing.T) {
	p, err := generate("churn", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Tenants = p.Tenants[:2]
	p.Tenants[0].Procs = p.Tenants[0].Procs[:1]

	const stall = 200 * time.Millisecond
	rec := drive(context.Background(), p, &stallBackend{stall: stall})
	if rec.failed != 0 || len(rec.errs) != 0 {
		t.Fatalf("failed ops: %d, errors: %v", rec.failed, rec.errs)
	}
	procs := rec.sortedProcs()
	if len(procs) != 3 {
		t.Fatalf("completed processes = %d, want 3", len(procs))
	}
	// The first registration stalled: the wait counts in that process's
	// latency and in none of the later ones.
	for _, pr := range procs {
		stalled := pr.Tenant == p.Tenants[0].ID
		if stalled != (pr.Latency >= stall) {
			t.Errorf("%s process %d latency %v; stalled: %v", pr.Tenant, pr.Index, pr.Latency, stalled)
		}
	}
}
