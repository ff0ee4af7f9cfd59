package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
)

// Workload shapes, sized on a 2-core machine. Every workload is a
// closed loop over one connection: each tenant registers when the one
// before it has left, so the server never runs two requests at once and
// a latency is the request's own. Plans have a fixed size per (seed,
// seconds), so the decision-quality counts repeat for a seed on any
// machine.
const (
	// churnBlockSeconds sizes churn: one block of tenants (each of the
	// eight jobs once) per this many seconds of requested run time.
	// Each churn tenant runs two tuning processes.
	churnBlockSeconds = 2.0
	// onboardBlockSeconds sizes onboard the same way.
	onboardBlockSeconds = 1.7
	// onboardSplices is how many operators are spliced into a corpus
	// template before registration, so repeats of a fingerprint are rare.
	onboardSplices = 2
	// measureTicks is the client engine's measurement window, in ticks.
	measureTicks = 50
)

// workloads lists the benchmark's workload names in a stable order.
var workloads = []string{"churn", "onboard"}

// procPlan is one tuning process of a tenant. The first process of
// every tenant is triggered by its registration; every later one by a
// topology mutation.
type procPlan struct {
	// Mutation is the PATCH /topology document that triggers the
	// process; nil for the registration-triggered first process.
	Mutation []byte
	// Full processes run to done. Otherwise the process ends at its
	// first recommendation; the client still deploys it and posts the
	// window it measured before moving on.
	Full bool
}

// tenant is one seeded tenant: a registration spec, the client's engine
// configuration, and its sequence of tuning processes.
type tenant struct {
	ID string
	// Template is the corpus job the tenant's topology derives from.
	Template string
	Spec     []byte
	Engine   engine.Config
	Procs    []procPlan
}

// plan is the full seeded input of one run.
type plan struct {
	Tenants []tenant
}

// processes counts the tuning processes in the plan.
func (p *plan) processes() int {
	n := 0
	for _, t := range p.Tenants {
		n += len(t.Procs)
	}
	return n
}

// generate builds the seeded input of a workload sized for a run of
// the given length. The same (workload, seed, seconds) always gives the
// same plan; the server only ever sees the generated documents.
func generate(name string, seed int64, seconds int) (*plan, error) {
	templates, err := experiments.FlinkWorkloads(experiments.Quick())
	if err != nil {
		return nil, err
	}
	var (
		build    func(*rand.Rand, []experiments.Workload, draw, int) (tenant, error)
		perBlock float64
		stream   int64
	)
	switch name {
	case "churn":
		build, perBlock, stream = churnTenant, churnBlockSeconds, 1
	case "onboard":
		build, perBlock, stream = onboardTenant, onboardBlockSeconds, 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	rng := rand.New(rand.NewSource(seed*1000003 + stream))
	// Whole blocks of the mix, as many as fit the run.
	n := max(1, int(math.Round(float64(seconds)/perBlock)))
	mix := &mixer{rng: rng, n: len(templates)}
	p := &plan{}
	for i := 0; i < n*len(templates); i++ {
		t, err := build(rng, templates, mix.next(), i)
		if err != nil {
			return nil, err
		}
		p.Tenants = append(p.Tenants, t)
	}
	return p, nil
}

// draw is one tenant's template and rate multipliers.
type draw struct {
	template    int
	mult, mult2 float64
}

// mixer draws templates and rate multipliers in blocks, so that every
// run sees nearly the same mix and the seed only changes pairing and
// order. Each block of n draws is a permutation of the n templates, and
// each of its two multiplier sequences covers the [1, 10] envelope in
// n equal strata, one uniform draw per stratum. Within a cycle of n
// blocks the strata rotate over the templates, so every template meets
// every stratum once per cycle (a Latin square): no seed gives one job
// only high or only low rates.
type mixer struct {
	rng *rand.Rand
	n   int
	// shifts are the stratum rotations of the cycle's remaining blocks,
	// one sequence per multiplier.
	shifts [2][]int
	block  []draw
}

func (m *mixer) next() draw {
	if len(m.block) == 0 {
		if len(m.shifts[0]) == 0 {
			m.shifts = [2][]int{m.rng.Perm(m.n), m.rng.Perm(m.n)}
		}
		a, b := m.shifts[0][0], m.shifts[1][0]
		m.shifts[0], m.shifts[1] = m.shifts[0][1:], m.shifts[1][1:]
		stratum := func(k int) float64 { return 1 + 9*(float64(k%m.n)+m.rng.Float64())/float64(m.n) }
		for _, j := range m.rng.Perm(m.n) {
			m.block = append(m.block, draw{template: j, mult: stratum(j + a), mult2: stratum(j + b)})
		}
	}
	d := m.block[0]
	m.block = m.block[1:]
	return d
}

// newTenant starts a tenant on a corpus template at a rate multiplier,
// with its own engine seed.
func newTenant(rng *rand.Rand, w experiments.Workload, id string, mult float64) (tenant, *dag.Graph) {
	g := w.Graph.Clone()
	w.SetRate(g, mult)
	cfg := engine.DefaultConfig(engine.Flink)
	cfg.MeasureTicks = measureTicks
	cfg.Seed = rng.Int63()
	return tenant{ID: id, Template: w.Name, Engine: cfg}, g
}

// churnTenant registers one of the paper's eight Flink jobs at a seeded
// rate, tunes it to done, changes its rate once, tunes it to done again,
// and leaves.
func churnTenant(rng *rand.Rand, templates []experiments.Workload, d draw, i int) (tenant, error) {
	w := templates[d.template]
	t, g := newTenant(rng, w, fmt.Sprintf("churn-%04d", i), d.mult)
	spec, err := encodeSpec(g)
	if err != nil {
		return t, err
	}
	t.Spec = spec
	mut, err := rateChange(g, w.Units, d.mult2)
	if err != nil {
		return t, err
	}
	doc, err := json.Marshal(mut)
	if err != nil {
		return t, err
	}
	t.Procs = []procPlan{{Full: true}, {Mutation: doc, Full: true}}
	return t, nil
}

// onboardTenant registers a structural perturbation of a corpus
// template (operators spliced onto edges), takes its first
// recommendation, is perturbed once more through a mutation, takes the
// first recommendation of that shape too, and leaves. Every shape is
// new to the service, so admission and inference caches miss.
func onboardTenant(rng *rand.Rand, templates []experiments.Workload, d draw, i int) (tenant, error) {
	w := templates[d.template]
	t, g := newTenant(rng, w, fmt.Sprintf("onboard-%04d", i), d.mult)
	for k := 0; k < onboardSplices; k++ {
		mut, err := splice(rng, g, fmt.Sprintf("splice-%d", k))
		if err != nil {
			return t, err
		}
		next, err := mut.Apply(g)
		if err != nil {
			return t, fmt.Errorf("onboard splice: %w", err)
		}
		g = next
	}
	spec, err := encodeSpec(g)
	if err != nil {
		return t, err
	}
	t.Spec = spec
	mut, err := splice(rng, g, fmt.Sprintf("splice-%d", onboardSplices))
	if err != nil {
		return t, err
	}
	doc, err := json.Marshal(mut)
	if err != nil {
		return t, err
	}
	t.Procs = []procPlan{{Full: false}, {Mutation: doc, Full: false}}
	return t, nil
}

// encodeSpec renders a graph as the external spec document a tenant
// registers with.
func encodeSpec(g *dag.Graph) ([]byte, error) {
	s, err := dagspec.FromGraph(g)
	if err != nil {
		return nil, err
	}
	return s.Encode()
}

// rateChange builds the mutation that moves every source of g to
// mult x its rate unit. A mutation re-adds nodes after the surviving
// ones, so to keep the operators' order — and with it the structural
// fingerprint — it replaces every node from the first source on, each
// with its own configuration except for the sources' new rate, and
// restores their edges. Nothing else about the topology changes.
func rateChange(g *dag.Graph, units map[string]float64, mult float64) (*dagspec.Mutation, error) {
	s, err := dagspec.FromGraph(g)
	if err != nil {
		return nil, err
	}
	first := len(s.Nodes)
	for i, n := range s.Nodes {
		if n.Kind == dagspec.KindSource {
			first = i
			break
		}
	}
	mut := &dagspec.Mutation{Version: dagspec.Version}
	replaced := make(map[string]bool)
	for _, n := range s.Nodes[first:] {
		if n.Kind == dagspec.KindSource {
			wu, ok := units[n.ID]
			if !ok {
				return nil, fmt.Errorf("rate change: source %q has no rate unit", n.ID)
			}
			ns := *n.Spec
			ns.Rate = wu * mult
			n.Spec = &ns
		}
		replaced[n.ID] = true
		mut.RemoveNodes = append(mut.RemoveNodes, n.ID)
		mut.AddNodes = append(mut.AddNodes, n)
	}
	for _, e := range s.Edges {
		if replaced[e[0]] || replaced[e[1]] {
			mut.AddEdges = append(mut.AddEdges, e)
		}
	}
	return mut, nil
}

// splice builds the mutation that inserts one filter or map operator
// with the given ID onto a seeded edge of g.
func splice(rng *rand.Rand, g *dag.Graph, id string) (*dagspec.Mutation, error) {
	s, err := dagspec.FromGraph(g)
	if err != nil {
		return nil, err
	}
	edge := s.Edges[rng.Intn(len(s.Edges))]
	kind := dagspec.KindFilter
	sel := 0.5 + 0.5*rng.Float64()
	if rng.Intn(2) == 0 {
		kind, sel = dagspec.KindMap, 1
	}
	width := g.Operator(edge[0]).TupleWidthOut
	if width <= 0 {
		width = 64
	}
	return &dagspec.Mutation{
		Version: dagspec.Version,
		AddNodes: []dagspec.Node{{ID: id, Kind: kind, Spec: &dagspec.NodeSpec{
			Selectivity: sel,
			Tuple:       &dagspec.TupleSpec{WidthIn: width, WidthOut: width},
		}}},
		RemoveEdges: [][2]string{edge},
		AddEdges:    [][2]string{{edge[0], id}, {id, edge[1]}},
	}, nil
}
