package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"github.com/streamtune/streamtune/internal/bottleneck"
	"github.com/streamtune/streamtune/internal/dag"
	"github.com/streamtune/streamtune/internal/dagspec"
	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/mono"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// checkpointEvery is streamtune serve's default -checkpoint-mutations
// cadence, which the traced run reproduces in process.
const checkpointEvery = 64

// replay is a backend over caller-owned streamtune.Tuners that repeats
// the service's admission and tuning pipeline call for call: spec
// compile, cluster assignment, the per-cluster warm-up set, target
// inference, distillation, and the first fit, then Step/Observe, and
// on a mutation Apply, re-assignment and a warm-start restore. Its
// recommendations are the reference the server's are checked against.
//
// With a tracer, every call into a layer is a span; with a service,
// each operation is also applied to that in-process service (timed as
// the service layer) and the two must answer identically.
type replay struct {
	pt  *streamtune.PreTrained
	tr  *tracer
	svc *service.Service

	warm sync.Map // cluster -> *warmEntry

	mu       sync.Mutex
	sessions map[string]*replaySession

	// Checkpointing of the in-process service (traced run only).
	ckptDir  string
	lastCkpt uint64
}

type warmEntry struct {
	once sync.Once
	warm []mono.Sample
	err  error
}

type replaySession struct {
	id    string
	g     *dag.Graph
	cfg   engine.Config
	c     int
	tuner *streamtune.Tuner
	proc  *streamtune.Process
	embs  [][]float64
	topo  []int
	// fits counts real model fits (the tuner's OnFit hook).
	fits int
	// model is the traced run's copy of the tuner's last fitted model,
	// refitted by the benchmark on the same samples.
	model mono.Model
}

func newReplay(pt *streamtune.PreTrained, tr *tracer, svc *service.Service, ckptDir string) *replay {
	return &replay{pt: pt, tr: tr, svc: svc, sessions: make(map[string]*replaySession), ckptDir: ckptDir}
}

func (r *replay) session(id string) (*replaySession, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sessions[id]
	if !ok {
		return nil, fmt.Errorf("replay: unknown tenant %q", id)
	}
	return s, nil
}

// warmup returns the cluster's warm-up set, built once per cluster as
// the service does.
func (r *replay) warmup(c int, tenant string, parent int) ([]mono.Sample, error) {
	v, _ := r.warm.LoadOrStore(c, &warmEntry{})
	e := v.(*warmEntry)
	e.once.Do(func() {
		sp := r.tr.begin("tuner", "tuner.warmup", tenant, parent)
		e.warm, e.err = streamtune.ClusterWarmup(r.pt, c)
		r.tr.end(sp)
	})
	return e.warm, e.err
}

// start opens the tuning process for s.g on cluster s.c with a tuner
// already in s.tuner: target inference, distillation, first fit.
func (r *replay) start(s *replaySession, parent int) error {
	s.tuner.SetInstruments(streamtune.Instruments{OnFit: func() { s.fits++ }})
	sp := r.tr.begin("gnn", "infer.encode", s.id, parent)
	isess, err := r.pt.Encoder(s.c).NewInferSession(s.g)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("gnn", "infer.distill", s.id, parent)
	proc, err := s.tuner.StartWithSession(isess, s.cfg)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	s.proc, s.embs = proc, isess.Embeddings()
	if s.topo, err = s.g.TopoOrder(); err != nil {
		return err
	}
	_, err = r.tunerCall(s, "tuner.prefit", parent, proc.Prefit)
	return err
}

// tunerCall times one call into the tuner and, traced, repeats the
// model fit it performed (if any) as a mono-layer shadow span. It
// returns the call's span.
func (r *replay) tunerCall(s *replaySession, name string, parent int, f func() error) (int, error) {
	fits := s.fits
	sp := r.tr.begin("tuner", name, s.id, parent)
	err := f()
	r.tr.end(sp)
	if err != nil || r.tr == nil || s.fits == fits {
		return sp, err
	}
	samples := s.tuner.TrainingSamples()
	cfg := r.pt.Config
	fit := r.tr.shadow("mono", "mono.fit", s.id, sp)
	m, err := mono.New(cfg.Model, cfg.GNN.PMax, cfg.ModelSeed)
	if err == nil {
		err = m.Fit(samples)
	}
	r.tr.endN(fit, len(samples))
	s.model = m
	return sp, err
}

// shadowPredict repeats, as mono-layer shadow spans under parent, the
// per-operator MinNonBottleneck searches a recommendation performs.
func (r *replay) shadowPredict(s *replaySession, parent int) {
	if r.tr == nil || s.model == nil {
		return
	}
	for _, i := range s.topo {
		sp := r.tr.shadow("mono", "mono.min_nonbottleneck", s.id, parent)
		mono.MinNonBottleneck(s.model, s.embs[i], s.cfg.MaxParallelism, r.pt.Config.Threshold)
		r.tr.end(sp)
	}
}

func (r *replay) Register(ctx context.Context, id string, spec []byte, cfg engine.Config) error {
	op := r.tr.begin("bench", "op.register", id, 0)
	defer r.tr.end(op)
	var want *service.RegisterResult
	if r.svc != nil {
		g, err := compileSpec(spec)
		if err != nil {
			return err
		}
		sp := r.tr.begin("service", "service.register", id, op)
		want, err = r.svc.Register(ctx, id, g, cfg)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := r.tr.begin("dagspec", "admit.spec", id, op)
	g, err := compileSpec(spec)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("admission", "admit.assign", id, op)
	c, _ := r.pt.AssignCluster(g)
	r.tr.end(sp)
	if want != nil && want.ClusterID != c {
		return fmt.Errorf("replay: %s: in-process service assigned cluster %d, caller-owned pipeline %d", id, want.ClusterID, c)
	}
	warm, err := r.warmup(c, id, op)
	if err != nil {
		return err
	}
	s := &replaySession{id: id, g: g, cfg: cfg, c: c}
	sp = r.tr.begin("tuner", "tuner.new", id, op)
	s.tuner, err = streamtune.NewTunerWithWarmup(r.pt, c, warm)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if err := r.start(s, op); err != nil {
		return err
	}
	r.mu.Lock()
	r.sessions[id] = s
	r.mu.Unlock()
	return r.checkpoint(false)
}

func (r *replay) Recommend(ctx context.Context, id string) (*service.Recommendation, error) {
	s, err := r.session(id)
	if err != nil {
		return nil, err
	}
	op := r.tr.begin("bench", "op.recommend", id, 0)
	defer r.tr.end(op)
	var want *service.Recommendation
	if r.svc != nil {
		sp := r.tr.begin("service", "service.recommend", id, op)
		want, err = r.svc.Recommend(ctx, id)
		r.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	var rec map[string]int
	var deploy, done bool
	step, err := r.tunerCall(s, "tuner.step", op, func() error {
		var err error
		rec, deploy, done, err = s.proc.Step()
		return err
	})
	if err != nil {
		return nil, err
	}
	got := &service.Recommendation{JobID: id, Iteration: s.proc.Iteration(), Parallelism: rec, Deploy: deploy}
	if done {
		got.Parallelism, got.Deploy, got.Done = s.proc.Result().Parallelism, false, true
	} else {
		r.shadowPredict(s, step)
	}
	if want != nil && (want.Done != got.Done || want.Deploy != got.Deploy || !equalAssignment(want.Parallelism, got.Parallelism)) {
		return nil, fmt.Errorf("replay: %s: in-process service recommended %+v, caller-owned tuner %+v", id, *want, *got)
	}
	return got, r.checkpoint(false)
}

func (r *replay) Observe(ctx context.Context, id string, m *engine.JobMetrics) (bool, error) {
	s, err := r.session(id)
	if err != nil {
		return false, err
	}
	op := r.tr.begin("bench", "op.observe", id, 0)
	defer r.tr.end(op)
	var want bool
	if r.svc != nil {
		sp := r.tr.begin("service", "service.observe", id, op)
		want, err = r.svc.Observe(ctx, id, m)
		r.tr.end(sp)
		if err != nil {
			return false, err
		}
	}
	var done bool
	observe, err := r.tunerCall(s, "tuner.observe", op, func() error {
		var err error
		done, err = s.proc.Observe(m)
		return err
	})
	if err != nil {
		return false, err
	}
	if r.tr != nil {
		sp := r.tr.shadow("bottleneck", "bottleneck.label", id, observe)
		_, err := bottleneck.ForFlavor(s.g, m, s.cfg)
		r.tr.end(sp)
		if err != nil {
			return false, err
		}
		if !m.Backpressured {
			// Observe's convergence check recomputes the recommendation.
			r.shadowPredict(s, observe)
		}
	}
	if r.svc != nil && want != done {
		return false, fmt.Errorf("replay: %s: in-process service observe done=%v, caller-owned tuner %v", id, want, done)
	}
	return done, r.checkpoint(false)
}

func (r *replay) Mutate(ctx context.Context, id string, doc []byte) error {
	s, err := r.session(id)
	if err != nil {
		return err
	}
	op := r.tr.begin("bench", "op.mutate", id, 0)
	defer r.tr.end(op)
	var want *service.MutateResult
	if r.svc != nil {
		mut, err := dagspec.ParseMutation(doc)
		if err != nil {
			return err
		}
		sp := r.tr.begin("service", "service.mutate", id, op)
		want, err = r.svc.MutateTopology(ctx, id, mut)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := r.tr.begin("dagspec", "admit.mutation_parse", id, op)
	mut, err := dagspec.ParseMutation(doc)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("dagspec", "admit.mutation_apply", id, op)
	g, err := mut.Apply(s.g)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin("admission", "admit.assign", id, op)
	c, _ := r.pt.AssignCluster(g)
	r.tr.end(sp)
	if want != nil && (want.ClusterID != c || want.WarmStart != (c == s.c)) {
		return fmt.Errorf("replay: %s: in-process service mutated to cluster %d (warm start %v), caller-owned pipeline to %d from %d",
			id, want.ClusterID, want.WarmStart, c, s.c)
	}
	if c == s.c {
		// Warm start: the service carries the training set across the
		// mutation through a tuner state round trip.
		sp = r.tr.begin("tuner", "tuner.restore", id, op)
		s.tuner, err = streamtune.RestoreTuner(r.pt, s.tuner.State())
		r.tr.end(sp)
	} else {
		var warm []mono.Sample
		if warm, err = r.warmup(c, id, op); err == nil {
			sp = r.tr.begin("tuner", "tuner.new", id, op)
			s.tuner, err = streamtune.NewTunerWithWarmup(r.pt, c, warm)
			r.tr.end(sp)
		}
	}
	if err != nil {
		return err
	}
	s.g, s.c = g, c
	if err := r.start(s, op); err != nil {
		return err
	}
	return r.checkpoint(false)
}

func (r *replay) Release(ctx context.Context, id string) error {
	op := r.tr.begin("bench", "op.release", id, 0)
	defer r.tr.end(op)
	if r.svc != nil {
		sp := r.tr.begin("service", "service.release", id, op)
		err := r.svc.Release(id)
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.mu.Lock()
	delete(r.sessions, id)
	r.mu.Unlock()
	return r.checkpoint(false)
}

// checkpoint snapshots the in-process service and writes the snapshot
// atomically once checkpointEvery registry mutations have accumulated,
// or, with final, whenever any have — the cadence and shutdown flush of
// streamtune serve's checkpointer.
func (r *replay) checkpoint(final bool) error {
	if r.svc == nil || r.ckptDir == "" {
		return nil
	}
	pending := r.svc.Mutations() - r.lastCkpt
	if pending == 0 || (!final && pending < checkpointEvery) {
		return nil
	}
	r.lastCkpt = r.svc.Mutations()
	sp := r.tr.begin("service", "checkpoint.snapshot", "", 0)
	data, err := r.svc.Snapshot()
	r.tr.endN(sp, len(data))
	if err != nil {
		return err
	}
	sp = r.tr.begin("service", "checkpoint.write", "", 0)
	err = service.WriteFileAtomic(filepath.Join(r.ckptDir, "checkpoint.json"), data)
	r.tr.endN(sp, len(data))
	return err
}
