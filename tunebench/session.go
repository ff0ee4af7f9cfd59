package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// backend is the tuning service as one tenant sees it. The load
// generator talks to a server process over HTTP; the replays drive a
// caller-owned streamtune.Tuner (and, traced, an in-process service).
type backend interface {
	Register(ctx context.Context, id string, spec []byte, cfg engine.Config) error
	Recommend(ctx context.Context, id string) (*service.Recommendation, error)
	Observe(ctx context.Context, id string, m *engine.JobMetrics) (done bool, err error)
	Mutate(ctx context.Context, id string, mutation []byte) error
	Release(ctx context.Context, id string) error
}

// Operation names, as reported in latencies and spans.
const (
	opRegister  = "register"
	opRecommend = "recommend"
	opObserve   = "observe"
	opMutate    = "mutate"
	opRelease   = "release"
)

var ops = []string{opRegister, opRecommend, opObserve, opMutate, opRelease}

// procRecord is the outcome of one tuning process as the client saw it.
type procRecord struct {
	Tenant string
	Index  int
	// Latency runs from when the process's trigger was due to the
	// response that ended it.
	Latency time.Duration
	// Final is the deployment the process ended on.
	Final map[string]int
	// Deploys counts reconfigurations; Backpressured counts measured
	// windows that showed job-level backpressure; Steps counts
	// recommendations that asked the client to act.
	Deploys       int
	Backpressured int
	Steps         int
}

// recorder collects what the client observes. It is shared by the
// replay's workers.
type recorder struct {
	mu        sync.Mutex
	ops       []opLatency
	procs     []procRecord
	attempted int
	failed    int
	errs      []error
}

// opLatency is one successful operation's client-observed latency.
type opLatency struct {
	op, tenant string
	d          time.Duration
}

func newRecorder() *recorder { return &recorder{} }

// latencies returns the latencies of op in milliseconds, over every
// tenant or, with a tenant set, over those tenants only.
func (r *recorder) latencies(op string, tenants map[string]bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, l := range r.ops {
		if l.op == op && (tenants == nil || tenants[l.tenant]) {
			out = append(out, ms(l.d))
		}
	}
	return out
}

// opError is a failed or refused backend operation, already counted
// by the recorder that timed it.
type opError struct {
	op  string
	err error
}

func (e *opError) Error() string { return e.op + ": " + e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// call runs one backend operation for a tenant, timing it and counting
// it.
func (r *recorder) call(op, tenant string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		return &opError{op, err}
	}
	r.ops = append(r.ops, opLatency{op, tenant, d})
	return nil
}

// fail records the error that ended a tenant early. A failed operation
// was counted when it happened; any other failure (a recommendation
// out of bounds, no convergence) counts here.
func (r *recorder) fail(err error) {
	var op *opError
	r.mu.Lock()
	defer r.mu.Unlock()
	if !errors.As(err, &op) {
		r.failed++
	}
	r.errs = append(r.errs, err)
}

func (r *recorder) addProc(p procRecord) {
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
}

// merge adds another recorder's processes, counts and errors.
func (r *recorder) merge(o *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procs = append(r.procs, o.procs...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// sortedProcs returns the process records ordered by tenant and index,
// so two runs of the same plan line up.
func (r *recorder) sortedProcs() []procRecord {
	r.mu.Lock()
	out := append([]procRecord(nil), r.procs...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// client plays tenants' Flink clusters on the simulated engine and
// walks their tuning processes against a backend.
type client struct {
	b    backend
	rec  *recorder
	tr   *tracer // nil: untraced
	wait time.Duration
	// limits the recommendations are checked against.
	maxIter int
}

func newClient(b backend, rec *recorder, tr *tracer) *client {
	cfg := streamtune.DefaultConfig()
	return &client{b: b, rec: rec, tr: tr, wait: cfg.StabilizeWait, maxIter: cfg.MaxIterations}
}

// session is one tenant's walk through its tuning processes.
type session struct {
	c *client
	t *tenant
	// due is when the current process's trigger was due: the tenant's
	// start for the registration, the end of the previous process for
	// a mutation.
	due  time.Time
	proc int // index of the current process
	g    *dag.Graph
	eng  *engine.Engine
	cur  map[string]int // the deployment
	rec  procRecord
}

func (c *client) start(t *tenant, due time.Time) *session {
	return &session{c: c, t: t, due: due}
}

// run walks the tenant through its processes and releases it. A
// failure ends the walk early, but the tenant is still released, so the
// server's registry does not fill.
func (s *session) run(ctx context.Context) {
	var err error
	for s.proc < len(s.t.Procs) && err == nil {
		err = s.process(ctx)
	}
	_ = s.c.rec.call(opRelease, s.t.ID, func() error { return s.c.b.Release(ctx, s.t.ID) })
	if err != nil {
		s.c.rec.fail(fmt.Errorf("tenant %s process %d: %w", s.t.ID, s.proc, err))
	}
}

// process runs the current tuning process from its trigger to the
// response that ends it and records it; the next one is due at once.
func (s *session) process(ctx context.Context) error {
	if err := s.trigger(ctx); err != nil {
		return err
	}
	for {
		m, err := s.recommend(ctx)
		if err != nil {
			return err
		}
		if m == nil {
			break // done
		}
		done, err := s.observe(ctx, m)
		if err != nil {
			return err
		}
		if !s.t.Procs[s.proc].Full {
			break
		}
		if done {
			s.rec.Latency, s.rec.Final = time.Since(s.due), s.cur
			break
		}
	}
	s.c.rec.addProc(s.rec)
	s.proc++
	s.due = time.Now()
	return nil
}

// trigger registers the tenant or applies the current process's
// mutation, and starts a fresh engine on the resulting topology.
func (s *session) trigger(ctx context.Context) error {
	var err error
	if s.proc == 0 {
		if s.g, err = compileSpec(s.t.Spec); err == nil {
			err = s.c.rec.call(opRegister, s.t.ID, func() error { return s.c.b.Register(ctx, s.t.ID, s.t.Spec, s.t.Engine) })
		}
	} else {
		doc := s.t.Procs[s.proc].Mutation
		if s.g, err = applyMutation(s.g, doc); err == nil {
			err = s.c.rec.call(opMutate, s.t.ID, func() error { return s.c.b.Mutate(ctx, s.t.ID, doc) })
		}
	}
	if err != nil {
		return err
	}
	s.cur, s.rec = nil, procRecord{Tenant: s.t.ID, Index: s.proc}
	s.eng, err = engine.New(s.g, s.t.Engine)
	return err
}

// recommend asks for the next recommendation. If the process is done
// it returns no window; otherwise the client deploys the recommendation
// when asked and returns the window it measured.
func (s *session) recommend(ctx context.Context) (*engine.JobMetrics, error) {
	var r *service.Recommendation
	if err := s.c.rec.call(opRecommend, s.t.ID, func() error {
		var err error
		r, err = s.c.b.Recommend(ctx, s.t.ID)
		return err
	}); err != nil {
		return nil, err
	}
	if r.Done {
		if s.cur != nil && !equalAssignment(r.Parallelism, s.cur) {
			return nil, fmt.Errorf("final recommendation %v differs from the deployment %v", r.Parallelism, s.cur)
		}
		s.rec.Latency, s.rec.Final = time.Since(s.due), r.Parallelism
		return nil, nil
	}
	s.rec.Steps++
	if s.rec.Steps > s.c.maxIter {
		return nil, fmt.Errorf("no convergence within %d iterations", s.c.maxIter)
	}
	if err := checkAssignment(s.g, r.Parallelism, s.t.Engine.MaxParallelism); err != nil {
		return nil, err
	}
	if r.Deploy {
		if err := s.eng.Deploy(r.Parallelism); err != nil {
			return nil, err
		}
		s.eng.Stabilize(s.c.wait)
		s.rec.Deploys++
		s.cur = r.Parallelism
	}
	if !s.t.Procs[s.proc].Full && s.rec.Steps == 1 {
		// An onboarding process ends at its first recommendation.
		s.rec.Latency, s.rec.Final = time.Since(s.due), s.cur
	}
	span := s.c.tr.begin("engine", "engine.run", s.t.ID, 0)
	m, err := s.eng.Run()
	s.c.tr.end(span)
	if err != nil {
		return nil, err
	}
	if m.Backpressured {
		s.rec.Backpressured++
	}
	return m, nil
}

// observe posts a measured window and reports whether the service
// considers the process done.
func (s *session) observe(ctx context.Context, m *engine.JobMetrics) (bool, error) {
	var done bool
	err := s.c.rec.call(opObserve, s.t.ID, func() error {
		var err error
		done, err = s.c.b.Observe(ctx, s.t.ID, m)
		return err
	})
	return done, err
}

// checkAssignment verifies a recommendation covers every operator of g
// with a parallelism in [1, pmax].
func checkAssignment(g *dag.Graph, rec map[string]int, pmax int) error {
	if len(rec) != g.NumOperators() {
		return fmt.Errorf("recommendation covers %d of %d operators", len(rec), g.NumOperators())
	}
	for _, op := range g.Operators() {
		p, ok := rec[op.ID]
		if !ok || p < 1 || p > pmax {
			return fmt.Errorf("operator %q: parallelism %d outside [1, %d]", op.ID, p, pmax)
		}
	}
	return nil
}

func equalAssignment(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func compileSpec(doc []byte) (*dag.Graph, error) {
	s, err := dagspec.Parse(doc)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

func applyMutation(g *dag.Graph, doc []byte) (*dag.Graph, error) {
	m, err := dagspec.ParseMutation(doc)
	if err != nil {
		return nil, err
	}
	return m.Apply(g)
}
