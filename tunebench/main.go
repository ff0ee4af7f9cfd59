// Command tunebench is the tuning service's end-to-end benchmark.
//
//	go run . --workload churn --seed 1 --seconds 20 --trace 0
//
// It spawns `streamtune serve` (built from this repository) as a
// separate process with the flags the Dockerfile and systemd unit use,
// drives seeded tenants against it over one loopback HTTP connection in
// a closed loop, and plays each tenant's Flink
// cluster on the simulated engine client-side. Every tenant is then
// replayed through caller-owned streamtune.Tuners and the server's
// final recommendations must match the replay's; any failed operation
// or mismatch fails the run.
//
// With --trace 0 the result line carries the end-to-end metrics. With
// --trace 1 the replay runs traced, single-threaded and alongside an
// in-process service, and the result line carries the per-layer ledger;
// spans are written to --out.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/logbuffer"
	"github.com/streamtune/streamtune/internal/service"
	"github.com/streamtune/streamtune/internal/streamtune"
	"github.com/streamtune/streamtune/internal/telemetry"
)

// setupRuns is how many times a run spawns the server to measure
// set-up time; it reports the median and serves from the last spawn.
const setupRuns = 5

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	server     string
	out        string
	cpuprofile string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "churn", "workload: churn or onboard")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "run length in seconds; sizes the workload's plan")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the traced per-layer ledger instead of end-to-end metrics")
	flag.StringVar(&o.server, "server", "", "streamtune binary to serve with")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "tunebench"), "directory for checkpoints, server logs and spans")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the traced in-process run to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(o options) (*result, error) {
	if o.server == "" {
		return nil, fmt.Errorf("--server is required")
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	p, err := generate(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.out, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	workers := runtime.NumCPU()
	ctx := context.Background()

	// Load phase: set up the server several times, serve from the last.
	logFile, err := os.Create(filepath.Join(o.out, "server-"+o.workload+".log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, err := startServer(o.server, work, logFile)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Setup.Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up server: %w", err)
			}
			continue
		}
		srv = s
	}
	ready, err := srv.usage()
	if err != nil {
		srv.kill()
		return nil, err
	}
	hb := newHTTPBackend(srv.addr)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- srv.sampleRSS(100*time.Millisecond, stopRSS) }()
	loadStart := time.Now()
	httpRec := drive(ctx, p, hb)
	loadTime := time.Since(loadStart)
	close(stopRSS)
	rss := <-rssDone
	hb.close()
	used, err := srv.usage()
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	fmt.Printf("workload %s seed %d: %d tenants, %d processes, load phase %.1fs\n",
		o.workload, o.seed, len(p.Tenants), p.processes(), loadTime.Seconds())
	for _, op := range ops {
		fmt.Printf("  %s: %d samples\n", op, len(httpRec.latencies(op, nil)))
	}

	// Replay phase: the reference recommendations, traced or not.
	pt, _, err := experiments.PreTrain(engine.Flink, experiments.Quick())
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var svc *service.Service
	var replayRec *recorder
	traced, tracedProcs := 0, 0
	if o.trace {
		tr = newTracer()
		if svc, err = serveLikeService(pt); err != nil {
			return nil, err
		}
		rep := newReplay(pt, tr, svc, work)
		stopProfile, err := startProfile(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		// The traced replay is serial and does each operation twice; it
		// covers the plan's first tenants for a quarter of the run time,
		// which keeps a traced run about as long as an untraced one.
		// The untraced replay checks the rest.
		budget := time.Duration(o.seconds) * time.Second / 4
		start := time.Now()
		replayRec = newRecorder()
		for traced < len(p.Tenants) && time.Since(start) < budget {
			t := &p.Tenants[traced]
			newClient(rep, replayRec, tr).start(t, time.Now()).run(ctx)
			tracedProcs += len(t.Procs)
			traced++
		}
		if err := rep.checkpoint(true); err != nil {
			replayRec.fail(err)
		}
		if err := stopProfile(); err != nil {
			return nil, err
		}
		svc.Close()
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)), tr.spans); err != nil {
			return nil, err
		}
		fmt.Printf("traced %d of %d tenants (%d processes)\n", traced, len(p.Tenants), tracedProcs)
		replayRec.merge(replayTenants(ctx, p.Tenants[traced:], newReplay(pt, nil, nil, ""), workers))
	} else {
		replayRec = replayTenants(ctx, p.Tenants, newReplay(pt, nil, nil, ""), workers)
	}

	mismatches := compare(httpRec, replayRec, p.processes())
	for _, err := range append(append(httpRec.errs, replayRec.errs...), mismatches...) {
		fmt.Fprintln(os.Stderr, "tunebench:", err)
	}
	failed := httpRec.failed + replayRec.failed + len(mismatches)
	res := &result{
		Correct:   failed == 0,
		Attempted: httpRec.attempted,
		Failed:    failed,
	}
	if o.trace {
		stats := svc.Stats().Admission
		hit := ratio(float64(stats.CacheHits), float64(stats.CacheHits+stats.CacheMisses))
		tracedTenants := make(map[string]bool, traced)
		for _, t := range p.Tenants[:traced] {
			tracedTenants[t.ID] = true
		}
		res.Metrics = layerMetrics(tr, tracedProcs, hit, httpRec, tracedTenants, os.Stdout)
	} else {
		res.Metrics = endToEnd(httpRec, setups, rss, used.CPU-ready.CPU, res)
	}
	printTable(os.Stdout, res.Metrics)
	return res, nil
}

// serveLikeService builds an in-process service configured as
// streamtune serve configures its own by default.
func serveLikeService(pt *streamtune.PreTrained) (*service.Service, error) {
	ring := logbuffer.New(1024)
	handler := logbuffer.Fanout(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}), ring.Handler(slog.LevelInfo))
	return service.New(pt, service.Config{
		LeaseTTL:        30 * time.Minute,
		MaxSessions:     1024,
		BatchWindow:     2 * time.Millisecond,
		MaxBatch:        8,
		MaxObserveBatch: 16,
		RetryAfter:      time.Second,
		Metrics:         service.NewMetrics(telemetry.NewRegistry()),
		Logs:            ring,
		Logger:          slog.New(handler),
	})
}

// replayTenants runs tenants against an untraced replay backend from
// `workers` goroutines, without pacing: tenants are independent, so
// order does not change their results.
func replayTenants(ctx context.Context, tenants []tenant, b backend, workers int) *recorder {
	rec := newRecorder()
	next := make(chan *tenant)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				newClient(b, rec, nil).start(t, time.Now()).run(ctx)
			}
		}()
	}
	for i := range tenants {
		next <- &tenants[i]
	}
	close(next)
	wg.Wait()
	return rec
}

// compare checks the server's processes against the replay's: every
// planned process completed on both, with the same final deployment,
// reconfigurations, measured windows and backpressure.
func compare(got, want *recorder, planned int) []error {
	g, w := got.sortedProcs(), want.sortedProcs()
	var errs []error
	if len(g) != planned || len(w) != planned {
		errs = append(errs, fmt.Errorf("completed processes: server %d, replay %d, planned %d", len(g), len(w), planned))
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		a, b := g[i], w[i]
		if a.Tenant != b.Tenant || a.Index != b.Index {
			errs = append(errs, fmt.Errorf("process order differs at %d: server %s/%d, replay %s/%d", i, a.Tenant, a.Index, b.Tenant, b.Index))
			break
		}
		if !equalAssignment(a.Final, b.Final) || a.Deploys != b.Deploys || a.Steps != b.Steps || a.Backpressured != b.Backpressured {
			errs = append(errs, fmt.Errorf("%s process %d: server ended on %v after %d deploys/%d steps, replay on %v after %d/%d",
				a.Tenant, a.Index, a.Final, a.Deploys, a.Steps, b.Final, b.Deploys, b.Steps))
		}
	}
	return errs
}

// endToEnd computes the metrics a tenant of the service sees.
func endToEnd(rec *recorder, setups, rss []float64, cpu time.Duration, res *result) metrics {
	m := metrics{}
	procs := rec.sortedProcs()
	var lat []float64
	var deploys, par, bp int
	for _, p := range procs {
		lat = append(lat, ms(p.Latency))
		deploys += p.Deploys
		bp += p.Backpressured
		for _, v := range p.Final {
			par += v
		}
	}
	n := float64(len(procs))
	opMS := func(op string, q float64) float64 { return percentile(rec.latencies(op, nil), q) }
	// Register, observe and mutate latencies mix two modes, the small
	// jobs' fits and the large jobs'; their median falls between the
	// modes and jumps from one to the other, so the centre reported is
	// the mean.
	opMean := func(op string) float64 { return mean(rec.latencies(op, nil)) }
	m.set("setup_s", percentile(setups, 0.5), "s")
	m.set("server_rss_mb", percentile(rss, 0.5), "MB")
	m.set("server_cpu_ms_per_process", ratio(ms(cpu), n), "ms")
	m.set("process_p50_ms", percentile(lat, 0.5), "ms")
	m.set("process_p90_ms", percentile(lat, 0.9), "ms")
	m.set("register_mean_ms", opMean(opRegister), "ms")
	m.set("register_p90_ms", opMS(opRegister, 0.9), "ms")
	m.set("recommend_p50_ms", opMS(opRecommend, 0.5), "ms")
	m.set("observe_mean_ms", opMean(opObserve), "ms")
	m.set("observe_p90_ms", opMS(opObserve, 0.9), "ms")
	m.set("mutate_mean_ms", opMean(opMutate), "ms")
	m.set("mutate_p90_ms", opMS(opMutate, 0.9), "ms")
	m.set("reconfigs_per_process", ratio(float64(deploys), n), "count")
	m.set("parallelism_per_process", ratio(float64(par), n), "count")
	m.set("backpressure_per_process", ratio(float64(bp), n), "count")
	m.set("ok_ops_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	return m
}

func printTable(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// startProfile starts a CPU profile into path, if set, and returns the
// function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
