package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// layers are the repository modules the ledger attributes time to, in
// report order. "bench" is the benchmark's own glue between calls.
var layers = []string{"service", "dagspec", "admission", "gnn", "tuner", "mono", "bottleneck", "engine", "bench"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// closure compares, per operation, the time the in-process service
// took with the time the same operation's calls into the layers took.
type closure struct {
	service time.Duration
	layers  time.Duration
	count   int
}

func (c closure) share() float64 { return ratio(float64(c.layers), float64(c.service)) }

// closures sums, for every traced operation, the service span and the
// layer calls made for it (the op span's other children).
func closures(spans []span) map[string]*closure {
	out := make(map[string]*closure)
	opOf := make(map[int]string)
	for i := range spans {
		if spans[i].Layer == "bench" && spans[i].Parent == 0 {
			name := spans[i].Name[len("op."):]
			opOf[spans[i].ID] = name
			if out[name] == nil {
				out[name] = &closure{}
			}
			out[name].count++
		}
	}
	for i := range spans {
		op, ok := opOf[spans[i].Parent]
		if !ok {
			continue
		}
		if spans[i].Layer == "service" {
			out[op].service += spans[i].dur()
		} else {
			out[op].layers += spans[i].dur()
		}
	}
	return out
}

// layerMetrics derives the per-layer ledger from a traced run, the
// in-process service's admission counters, and the HTTP run's
// client-side latencies (over the traced tenants).
func layerMetrics(tr *tracer, procs int, cacheHitRatio float64, httpRec *recorder, traced map[string]bool, w io.Writer) metrics {
	m := metrics{}
	named := byName(tr.spans)
	p50 := func(name string) float64 { return percentile(msSample(named[name]), 0.5) }

	httpP50 := func(op string) float64 { return percentile(httpRec.latencies(op, traced), 0.5) }
	for _, op := range []string{opRegister, opRecommend, opObserve, opMutate} {
		m.set("http."+op+".overhead_ms", httpP50(op)-p50("service."+op), "ms")
	}
	for _, op := range ops {
		m.set("service."+op+"_ms", p50("service."+op), "ms")
	}
	m.set("admit.spec_ms", p50("admit.spec"), "ms")
	m.set("admit.assign_ms", p50("admit.assign"), "ms")
	m.set("admit.cache_hit_ratio", cacheHitRatio, "ratio")
	m.set("admit.mutation_apply_ms", p50("admit.mutation_apply"), "ms")
	m.set("infer.encode_ms", p50("infer.encode"), "ms")
	m.set("infer.distill_ms", p50("infer.distill"), "ms")
	m.set("tuner.warmup_ms", p50("tuner.warmup"), "ms")
	m.set("tuner.warmup_builds", float64(len(named["tuner.warmup"])), "count")
	m.set("tuner.restore_ms", p50("tuner.restore"), "ms")
	m.set("tuner.step_ms", p50("tuner.step"), "ms")
	m.set("tuner.observe_ms", p50("tuner.observe"), "ms")
	m.set("mono.min_nonbottleneck_us", 1000*p50("mono.min_nonbottleneck"), "us")
	m.set("bottleneck.label_us", 1000*p50("bottleneck.label"), "us")
	fits := msSample(named["mono.fit"])
	m.set("mono.fit_p50_ms", percentile(fits, 0.5), "ms")
	m.set("mono.fit_p90_ms", percentile(fits, 0.9), "ms")
	m.set("mono.fits_per_process", ratio(float64(len(fits)), float64(procs)), "count")
	var samples, ckptBytes []float64
	for i := range tr.spans {
		switch tr.spans[i].Name {
		case "mono.fit":
			samples = append(samples, float64(tr.spans[i].N))
		case "checkpoint.write":
			ckptBytes = append(ckptBytes, float64(tr.spans[i].N))
		}
	}
	m.set("mono.fit_samples", percentile(samples, 0.5), "count")
	m.set("checkpoint.snapshot_ms", p50("checkpoint.snapshot"), "ms")
	m.set("checkpoint.write_ms", p50("checkpoint.write"), "ms")
	m.set("checkpoint.bytes", percentile(ckptBytes, 0.5), "bytes")
	m.set("engine.run_ms", p50("engine.run"), "ms")

	self := selfTimes(tr.spans)
	perLayer := make(map[string]time.Duration)
	var tracedTime time.Duration
	for i := range tr.spans {
		perLayer[tr.spans[i].Layer] += self[i]
		if tr.spans[i].Parent == 0 {
			tracedTime += tr.spans[i].dur()
		}
	}
	cl := closures(tr.spans)
	var all closure
	names := make([]string, 0, len(cl))
	for name, c := range cl {
		all.service += c.service
		all.layers += c.layers
		names = append(names, name)
	}
	// The in-process service does each operation's layer work itself;
	// its own share is what the layer calls made for the operation do
	// not account for (plus the checkpoints, which are its alone).
	perLayer["service"] = total(named["checkpoint.snapshot"]) + total(named["checkpoint.write"])
	for _, c := range cl {
		if gap := c.service - c.layers; gap > 0 {
			perLayer["service"] += gap
		}
	}
	for _, l := range layers {
		m.set("self."+l+"_ms_per_process", ratio(ms(perLayer[l]), float64(procs)), "ms")
	}
	sort.Strings(names)
	m.set("trace.closure", all.share(), "ratio")
	for _, name := range names {
		c := cl[name]
		if name == opRelease {
			continue // a release calls no layer; its time counts in the total only
		}
		m.set("trace.closure."+name, c.share(), "ratio")
		gap := ""
		if c.share() < 0.9 {
			gap = fmt.Sprintf("; unattributed %.3f ms per call inside Service.%s outside every layer call", ms(c.service-c.layers)/float64(c.count), name)
		}
		fmt.Fprintf(w, "closure %-9s %.3f over %d calls (service %.1f ms, layers %.1f ms%s)\n",
			name, c.share(), c.count, ms(c.service), ms(c.layers), gap)
	}
	m.set("trace.overhead", ratio(float64(tr.cost), float64(tracedTime)), "ratio")
	return m
}
