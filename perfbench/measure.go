package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	// minOps is the fewest operations an end-to-end run measures.
	minOps int
}

const (
	// A run sets up at least minSetups times, and more while the set-ups
	// so far took less than setupBudget of CPU, up to maxSetups; setup_s
	// is their median.
	minSetups, maxSetups = 3, 9
	setupBudget          = 2 * time.Second
	// defaultMinOps keeps at least ten samples above op_s.p90.
	defaultMinOps = 110
	// maxLoop stops a loop that a slow machine would keep running past the
	// caller's time limit, whatever the minimum count says; a traced run
	// has two loops.
	maxLoop = 75 * time.Second
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by untraced runs. Times, setup_s included,
// are the process's CPU seconds (see cpuNow) scaled to reference speed
// (see refKernel).
var endToEndMetrics = []metricDef{
	{"op_cpu_s.p50", "s"},
	{"op_cpu_s.p90", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"sim_events_per_cpu_s", "1/s"},
	{"frames_per_cpu_s", "1/s"},
	{"alloc_bytes_per_op", "B/op"},
	{"allocs_per_op", "1/op"},
	{"setup_s", "s"},
}

// perLayerMetrics are printed by traced runs. A metric whose layer the
// workload does not reach reads 0.
var perLayerMetrics = []metricDef{
	{"sim.events_per_op", "count/op"},
	{"sim.cancelled_per_op", "count/op"},
	{"sim.ns_per_event", "ns"},
	{"sim.shard_rounds_per_op", "count/op"},
	{"sim.shard_sync_waits_per_op", "count/op"},
	{"sim.cross_lan_frames_per_op", "count/op"},
	{"netsim.forwarded_per_op", "count/op"},
	{"netsim.flooded_per_op", "count/op"},
	{"netsim.flood_ratio", "ratio"},
	{"netsim.cam_inserts_per_op", "count/op"},
	{"netsim.cam_evictions_per_op", "count/op"},
	{"netsim.learn_misses_per_op", "count/op"},
	{"netsim.ns_per_frame", "ns"},
	{"stack.cache_hit_ratio", "ratio"},
	{"stack.cache_writes_per_op", "count/op"},
	{"stack.policy_rejects_per_op", "count/op"},
	{"stack.resolve_retries_per_op", "count/op"},
	{"schemes.alerts_per_op", "count/op"},
	{"schemes.probes_per_op", "count/op"},
	{"schemes.verify_confirm_ratio", "ratio"},
	{"labnet.campus_build_s", "s"},
	{"labnet.bytes_per_host", "B/host"},
	{"trace.capture_frames_per_op", "count/op"},
	{"replay.new_s", "s"},
	{"replay.read_busy_s", "s/op"},
	{"replay.parse_busy_s", "s/op"},
	{"replay.run_s", "s"},
	{"replay.alert_write_s", "s/op"},
	{"replay.arp_ratio", "ratio"},
	{"replay.malformed_per_op", "count/op"},
	{"codec.decode_ns_per_frame", "ns"},
	{"faults.injected_per_op", "count/op"},
	{"scenario.load_s", "s"},
	{"scenario.run_s", "s"},
	{"gc.cycles_per_op", "1/op"},
	{"gc.pause_s_per_op", "s/op"},
	{"trace_overhead", "ratio"},
	{"parallelism", "ratio"},
	{"cpu_share.sim", "share"},
	{"cpu_share.netsim", "share"},
	{"cpu_share.stack", "share"},
	{"cpu_share.schemes", "share"},
	{"cpu_share.labnet", "share"},
	{"cpu_share.trace", "share"},
	{"cpu_share.replay", "share"},
	{"cpu_share.codec", "share"},
	{"cpu_share.faults", "share"},
	{"cpu_share.telemetry", "share"},
	{"cpu_share.other", "share"},
	{"cpu_share.bench", "share"},
	{"cpu_share.runtime", "share"},
}

// cpuModules are the layers with their own cpu_share metric; profile
// samples charged to any other repro/internal package count as "other".
var cpuModules = map[string]bool{
	"sim": true, "netsim": true, "stack": true, "schemes": true, "labnet": true,
	"trace": true, "replay": true, "codec": true, "faults": true,
	"telemetry": true, "bench": true, "runtime": true,
}

// cpuNow returns the CPU time the process has used, user plus system, on
// every thread. Unlike wall time it leaves out time the machine gave to
// other tenants, which swings wall-clock figures by half on a shared host.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// session is a set-up workload plus what its operations have shown so far.
type session struct {
	pool  *pool
	ref   *refKernel
	setup []float64 // CPU seconds per set-up, at reference speed
	// first holds each input's first result; every later run of the input
	// must match it exactly.
	first     []*opResult
	attempted int
	failed    int
	errs      []string
	next      int // next input to run
}

// newSession sets the workload up several times: input generation,
// reference construction and one untimed warm-up operation, which also
// fills the program's scheduler, frame and arena pools. Kernel samples
// before and after each set-up give its speed.
func newSession(cfg config) (*session, error) {
	s := &session{ref: newRefKernel()}
	var spent time.Duration
	for r := 0; r < minSetups || (r < maxSetups && spent < setupBudget); r++ {
		pre := s.ref.sample()
		start := cpuNow()
		p, err := cfg.workload.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload.name, err)
		}
		warm, err := p.run(0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", cfg.workload.name, err)
		}
		took := cpuNow() - start
		spent += took
		s.setup = append(s.setup, took.Seconds()*refScale([]time.Duration{pre, s.ref.sample()}, []int{1})[0])
		if s.first == nil {
			s.pool = p
			s.first = make([]*opResult, p.n)
			s.first[0] = &warm
		} else if !sameResult(s.first[0], &warm) {
			return nil, fmt.Errorf("%s: set-up %d produced different inputs or results than set-up 0", cfg.workload.name, r)
		}
	}
	return s, nil
}

// sameResult reports whether two runs of one input agree exactly.
func sameResult(a, b *opResult) bool {
	if a.digest != b.digest || a.events != b.events || a.frames != b.frames || len(a.counts) != len(b.counts) {
		return false
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return false
		}
	}
	return true
}

// loop is what one measuring loop saw.
type loop struct {
	wall, cpu      time.Duration
	opCPU, opWall  []float64 // seconds per operation
	opRef          []float64 // CPU seconds per operation at reference speed
	events, frames uint64
	mem0, mem1     runtime.MemStats
}

// measure runs operations back to back, one at a time, until the wall
// budget is spent, at least atLeast operations have run, and the last pass
// over the inputs is complete: every input runs equally often, so the
// sample's mix is the same in every run. A reference kernel sample is taken
// before the first operation, after every refEvery of operation CPU time
// and after the last operation; the loop's wall and cpu leave them out.
func (s *session) measure(budget time.Duration, atLeast int, tr *tracer) loop {
	var l loop
	var samples []time.Duration
	var before []int
	var sampleWall, sampleCPU, since time.Duration
	takeSample := func() {
		w, c := time.Now(), cpuNow()
		samples = append(samples, s.ref.sample())
		sampleWall += time.Since(w)
		sampleCPU += cpuNow() - c
		since = 0
	}
	runtime.GC()
	runtime.ReadMemStats(&l.mem0)
	start, cpu0 := time.Now(), cpuNow()
	takeSample()
	for {
		el := time.Since(start)
		if (el >= budget && len(l.opCPU) >= atLeast && s.next%s.pool.n == 0) || el >= maxLoop {
			break
		}
		i := s.next % s.pool.n
		s.next++
		opSpan := tr.beginOp(s.attempted)
		before = append(before, len(samples))
		t0, c0 := time.Now(), cpuNow()
		r, err := s.pool.run(i, tr)
		took := cpuNow() - c0
		l.opCPU = append(l.opCPU, took.Seconds())
		l.opWall = append(l.opWall, time.Since(t0).Seconds())
		tr.endOp(opSpan)
		if since += took; since >= refEvery {
			takeSample()
		}
		s.attempted++
		if err == nil {
			if s.first[i] == nil {
				s.first[i] = &r
			} else if !sameResult(s.first[i], &r) {
				err = fmt.Errorf("output differs from the input's first run")
			}
		}
		if err != nil {
			s.failed++
			if len(s.errs) < 10 {
				s.errs = append(s.errs, fmt.Sprintf("input %d: %v", i, err))
			}
			continue
		}
		l.events += r.events
		l.frames += r.frames
	}
	if since > 0 {
		takeSample()
	}
	l.wall, l.cpu = time.Since(start)-sampleWall, cpuNow()-cpu0-sampleCPU
	runtime.ReadMemStats(&l.mem1)
	for i, f := range refScale(samples, before) {
		l.opRef = append(l.opRef, l.opCPU[i]*f)
	}
	return l
}

func (l *loop) ops() float64 { return float64(len(l.opCPU)) }

// digest folds every input's first result, in input order.
func (s *session) digest() string {
	ds := make([]string, len(s.first))
	for i, r := range s.first {
		if r != nil {
			ds[i] = r.digest
		}
	}
	return hashOf(ds)
}

// finish prints the correctness lines and builds the result.
func (s *session) finish(out io.Writer, metrics map[string]unit) *result {
	covered := 0
	for _, r := range s.first {
		if r != nil {
			covered++
		}
	}
	for _, e := range s.errs {
		fmt.Fprintf(out, "error: %s\n", e)
	}
	fmt.Fprintf(out, "error_rate %g (%d of %d operations failed)\n",
		float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	fmt.Fprintf(out, "digest %s over %d of %d inputs\n", s.digest(), covered, s.pool.n)
	return &result{
		Correct:   s.failed == 0 && covered == s.pool.n,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   metrics,
		digest:    s.digest(),
	}
}

// endToEndRun measures the end-to-end metrics with tracing off. Times are
// process CPU seconds at reference speed; the raw CPU and wall-clock
// figures are printed alongside.
func endToEndRun(cfg config, out io.Writer) (*result, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	l := s.measure(seconds(cfg.seconds), cfg.minOps, nil)
	ops := l.ops()
	cpu := sum(l.opRef)
	vals := map[string]float64{
		"op_cpu_s.p50":         percentile(l.opRef, 0.5),
		"op_cpu_s.p90":         percentile(l.opRef, 0.9),
		"ops_per_cpu_s":        ops / cpu,
		"sim_events_per_cpu_s": float64(l.events) / cpu,
		"frames_per_cpu_s":     float64(l.frames) / cpu,
		"alloc_bytes_per_op":   float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc) / ops,
		"allocs_per_op":        float64(l.mem1.Mallocs-l.mem0.Mallocs) / ops,
		"setup_s":              median(s.setup),
	}
	samples := map[string]int{"setup_s": len(s.setup)}
	for _, m := range endToEndMetrics {
		if m.name != "setup_s" {
			samples[m.name] = len(l.opCPU)
		}
	}
	metrics := withUnits(endToEndMetrics, vals)
	fmt.Fprintf(out, "workload %s seed %d: %d operations in %.2f s wall, %.2f s CPU, %.2f s CPU at reference speed (closed loop, 1 client)\n",
		cfg.workload.name, cfg.seed, len(l.opCPU), l.wall.Seconds(), l.cpu.Seconds(), cpu)
	report(out, metrics, samples)
	fmt.Fprintf(out, "raw CPU, for reference: op p50 %.6g s, op p90 %.6g s, %.6g ops per CPU second; host at %.3g of reference speed\n",
		percentile(l.opCPU, 0.5), percentile(l.opCPU, 0.9), ops/l.cpu.Seconds(), cpu/sum(l.opCPU))
	fmt.Fprintf(out, "wall clock, for reference: op p50 %.6g s, op p90 %.6g s, %.6g ops per second\n",
		percentile(l.opWall, 0.5), percentile(l.opWall, 0.9), ops/l.wall.Seconds())
	return s.finish(out, metrics), nil
}

// tracedRun measures the per-layer metrics. Its first half runs untraced,
// for the reference op p50 and the collector figures; its second half
// runs the same operations with spans and the CPU profiler on. Counts come
// from each input's first run and are the same in every run of the same
// seed.
func tracedRun(cfg config, spansPath string, out io.Writer) (*result, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	// Both halves run the same inputs in the same order, so their
	// latencies compare like for like.
	plain := s.measure(seconds(cfg.seconds/2), min(cfg.minOps, 20), nil)
	s.next = 0
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := s.measure(0, len(plain.opCPU), tr)
	pprof.StopCPUProfile()

	vals := map[string]float64{}
	if s.pool.layers != nil {
		extra, err := s.pool.layers(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range extra {
			vals[k] = v
		}
	}
	counts := layerCounts(s.first)
	for k, v := range counts {
		vals[k] = v
	}
	ops := plain.ops()
	perOp := func(total float64) float64 { return total / traced.ops() }
	vals["gc.cycles_per_op"] = float64(plain.mem1.NumGC-plain.mem0.NumGC) / ops
	vals["gc.pause_s_per_op"] = float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e9 / ops
	vals["trace_overhead"] = percentile(traced.opRef, 0.5) / percentile(plain.opRef, 0.5)
	vals["parallelism"] = plain.cpu.Seconds() / plain.wall.Seconds()
	vals["scenario.load_s"] = perOp(tr.seconds("scenario.Load"))
	vals["scenario.run_s"] = perOp(tr.seconds("scenario.Run"))
	vals["replay.new_s"] = perOp(tr.seconds("replay.New"))
	vals["replay.run_s"] = perOp(tr.seconds("replay.Run"))
	vals["replay.read_busy_s"] = perOp(tr.seconds("replay.Source.ReadRaw"))
	vals["replay.parse_busy_s"] = perOp(tr.seconds("replay.Source.Parse"))
	vals["replay.alert_write_s"] = perOp(tr.seconds("replay.Alerts.Write"))
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for mod, v := range shares {
		if !cpuModules[mod] {
			mod = "other"
		}
		vals["cpu_share."+mod] += v
	}
	// A layer's time per unit of work: its share of the profile applied to
	// the untraced half's CPU time, which ran the same operations.
	ns := plain.cpu.Seconds() * 1e9
	vals["sim.ns_per_event"] = ratio(vals["cpu_share.sim"]*ns, float64(plain.events))
	vals["netsim.ns_per_frame"] = ratio(vals["cpu_share.netsim"]*ns, float64(plain.frames))
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	profPath := strings.TrimSuffix(spansPath, filepath.Ext(spansPath)) + ".pprof"
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write cpu profile: %w", err)
	}

	metrics := withUnits(perLayerMetrics, vals)
	fmt.Fprintf(out, "workload %s seed %d: %d untraced + %d traced operations; %d spans (%d dropped) in %s, cpu profile in %s\n",
		cfg.workload.name, cfg.seed, len(plain.opCPU), len(traced.opCPU), len(tr.spans), tr.dropped, spansPath, profPath)
	samples := map[string]int{}
	for _, m := range perLayerMetrics {
		samples[m.name] = len(traced.opCPU)
		if _, ok := counts[m.name]; ok {
			samples[m.name] = s.pool.n
		}
	}
	report(out, metrics, samples)
	res := s.finish(out, metrics)
	res.counts = counts
	return res, nil
}

// layerCounts averages the deterministic telemetry counts over every
// input's first run.
func layerCounts(first []*opResult) map[string]float64 {
	vals := map[string]float64{}
	sum := map[string]float64{}
	for _, r := range first {
		for k, v := range r.counts {
			sum[k] += float64(v)
		}
		sum["events"] += float64(r.events)
	}
	n := float64(len(first))
	per := func(k string) float64 { return sum[k] / n }
	fwd, fld := sum["switch_frames_forwarded_total"], sum["switch_frames_flooded_total"]
	hits, misses := sum["stack_cache_hits_total"], sum["stack_cache_misses_total"]
	vals["sim.events_per_op"] = per("events")
	vals["sim.cancelled_per_op"] = per("sim_events_cancelled_total")
	vals["sim.shard_rounds_per_op"] = per("shard_rounds_total")
	vals["sim.shard_sync_waits_per_op"] = per("shard_sync_waits_total")
	vals["sim.cross_lan_frames_per_op"] = per("cross_lan_frames_total")
	vals["netsim.forwarded_per_op"] = fwd / n
	vals["netsim.flooded_per_op"] = fld / n
	vals["netsim.flood_ratio"] = ratio(fld, fwd+fld)
	vals["netsim.cam_inserts_per_op"] = per("switch_cam_inserts_total")
	vals["netsim.cam_evictions_per_op"] = per("switch_cam_evictions_total")
	vals["netsim.learn_misses_per_op"] = per("switch_learn_misses_total")
	vals["stack.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["stack.cache_writes_per_op"] = (sum["stack_cache_created_total"] +
		sum["stack_cache_overwrites_total"] + sum["stack_cache_refreshed_total"]) / n
	vals["stack.policy_rejects_per_op"] = per("stack_cache_policy_rejects_total")
	vals["stack.resolve_retries_per_op"] = per("stack_resolve_retries_total")
	vals["schemes.alerts_per_op"] = per("scheme_alerts_total")
	vals["schemes.probes_per_op"] = per("scheme_probes_sent_total")
	vals["schemes.verify_confirm_ratio"] = ratio(sum["scheme_verifications_total:confirmed"],
		sum["scheme_verifications_total:started"])
	vals["trace.capture_frames_per_op"] = per("capture_frames_total")
	vals["replay.arp_ratio"] = ratio(sum["replay_arp_frames_total"], sum["replay_frames_total"])
	vals["replay.malformed_per_op"] = per("replay_malformed_total")
	vals["faults.injected_per_op"] = per("faults_injected_total")
	return vals
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func withUnits(defs []metricDef, vals map[string]float64) map[string]unit {
	m := make(map[string]unit, len(defs))
	for _, d := range defs {
		m[d.name] = unit{Value: vals[d.name], Unit: d.unit}
	}
	return m
}
