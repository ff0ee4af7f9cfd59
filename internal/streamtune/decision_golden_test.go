package streamtune_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/experiments"
	"github.com/streamtune/streamtune/internal/streamtune"
)

// decisionGolden pins the tuner's decisions: every step's
// recommendation, iteration, reconfiguration and backpressure count for
// the eight quick-scale Flink workloads at three source rates, plus one
// rate change per workload restarted through State/RestoreTuner (as the
// tuning service does on a rate PATCH). A change to the prediction
// model's numerics that moves any decision changes this file.
//
// To regenerate after an intended decision change, delete the file and
// run the test once; it writes the fixture and fails so the new file is
// reviewed before it is committed.
const decisionGolden = "testdata/decisions.golden"

// goldenRates are the source-rate multipliers (x Wu) each workload is
// tuned at from a fresh tuner.
var goldenRates = []float64{2, 6, 9.5}

// goldenRestart is the rate change replayed through a restored tuner:
// the tuner that tuned at goldenRestart[0] is snapshotted, restored and
// retuned on the same engine at goldenRestart[1].
var goldenRestart = [2]float64{6, 9.5}

func TestDecisionGolden(t *testing.T) {
	opts := experiments.Quick()
	pt, _, err := experiments.PreTrain(engine.Flink, opts)
	if err != nil {
		t.Fatal(err)
	}
	workloads, err := experiments.FlinkWorkloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, w := range workloads {
		for _, mult := range goldenRates {
			eng, err := goldenEngine(w, mult, opts)
			if err != nil {
				t.Fatal(err)
			}
			tuner, err := streamtune.NewTuner(pt, eng.Graph())
			if err != nil {
				t.Fatalf("%s x%g: %v", w.Name, mult, err)
			}
			label := fmt.Sprintf("%s x%g", w.Name, mult)
			if err := recordProcess(&out, label, tuner, eng, pt.Config.StabilizeWait); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if mult != goldenRestart[0] {
				continue
			}
			restored, err := streamtune.RestoreTuner(pt, tuner.State())
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			w.SetRate(eng.Graph(), goldenRestart[1])
			label = fmt.Sprintf("%s x%g->x%g restored", w.Name, goldenRestart[0], goldenRestart[1])
			if err := recordProcess(&out, label, restored, eng, pt.Config.StabilizeWait); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}

	want, err := os.ReadFile(decisionGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(decisionGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(decisionGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and rerun", decisionGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("decisions diverge from %s at line %d:\n got: %s\nwant: %s", decisionGolden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("decisions diverge from %s: %d lines, want %d", decisionGolden, len(got), len(wantLines))
	}
}

// goldenEngine builds the workload's simulated Flink job at mult x Wu,
// deployed at parallelism 1 everywhere.
func goldenEngine(w experiments.Workload, mult float64, opts experiments.Options) (*engine.Engine, error) {
	g := w.Graph.Clone()
	w.SetRate(g, mult)
	ecfg := engine.DefaultConfig(engine.Flink)
	ecfg.Seed = opts.Seed
	ecfg.MeasureTicks = opts.MeasureTicks
	eng, err := engine.New(g, ecfg)
	if err != nil {
		return nil, err
	}
	initial := make(map[string]int, g.NumOperators())
	for _, op := range g.Operators() {
		initial[op.ID] = 1
	}
	return eng, eng.Deploy(initial)
}

// recordProcess drives one tuning process step by step against eng and
// writes every step's recommendation and the process totals, waiting
// wait after each deployment.
func recordProcess(out *bytes.Buffer, label string, tuner *streamtune.Tuner, eng *engine.Engine, wait time.Duration) error {
	p, err := tuner.Start(eng.Graph(), eng.Config())
	if err != nil {
		return err
	}
	for step := 1; ; step++ {
		rec, deploy, done, err := p.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
		fmt.Fprintf(out, "%s step %d deploy=%t %s\n", label, step, deploy, renderAssignment(rec))
		if deploy {
			if err := eng.Deploy(rec); err != nil {
				return err
			}
			eng.Stabilize(wait)
		}
		m, err := eng.Run()
		if err != nil {
			return err
		}
		if done, err = p.Observe(m); err != nil {
			return err
		}
		if done {
			break
		}
	}
	res := p.Result()
	fmt.Fprintf(out, "%s final iterations=%d reconfigurations=%d backpressure=%d %s\n",
		label, res.Iterations, res.Reconfigurations, res.BackpressureEvents, renderAssignment(res.Parallelism))
	return nil
}

// renderAssignment prints an assignment with operator IDs in sorted
// order.
func renderAssignment(a map[string]int) string {
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", id, a[id])
	}
	return b.String()
}
