package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/arppkt"
	"repro/internal/frame"
	"repro/internal/labnet"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/schemes/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// workload is one benchmark input family.
type workload struct {
	name  string
	setup func(seed int64) (*pool, error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{"lan-mix", setupLANMix},
	{"cam-flood", setupCAMFlood},
	{"campus", setupCampus},
	{"replay", setupReplay},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pool is one run's generated inputs: n distinct operations, run
// round-robin by the measuring loop.
type pool struct {
	n int
	// run executes input i, checks its output, and reports what it did.
	run func(i int, tr *tracer) (opResult, error)
	// layers, when set, makes the workload's own per-layer measurements
	// outside the operation loop (traced runs only).
	layers func(tr *tracer) (map[string]float64, error)
}

// opResult is what one operation produced.
type opResult struct {
	// digest summarizes the operation's output; it must be the same every
	// time the same input runs.
	digest string
	// counts are the operation's telemetry counters, summed over labels.
	counts map[string]uint64
	// events are executed simulation events; frames are switch forwarded
	// plus flooded frames, or records injected by a replay.
	events, frames uint64
}

// countsOf sums a registry snapshot's counters by name. Verification
// outcomes stay apart ("scheme_verifications_total:confirmed") because
// their ratio is a metric.
func countsOf(snap telemetry.Snapshot) map[string]uint64 {
	c := make(map[string]uint64, len(snap.Counters))
	for _, p := range snap.Counters {
		c[p.Name] += p.Value
		if o := p.Labels["outcome"]; o != "" {
			c[p.Name+":"+o] += p.Value
		}
	}
	return c
}

func hashOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// --- scenario workloads: lan-mix, cam-flood, campus ---

// scenarioCase is one generated spec: the JSON the program loads and the
// checks its result must pass.
type scenarioCase struct {
	json   []byte
	expect func(res *scenario.Result) error
}

// scenarioPool wraps generated cases into a pool whose operation is one
// scenario.Load plus scenario.Run, the arpscenario path.
func scenarioPool(cases []scenarioCase) *pool {
	return &pool{
		n: len(cases),
		run: func(i int, tr *tracer) (opResult, error) {
			c := cases[i]
			sp := tr.begin("scenario.Load")
			spec, err := scenario.Load(bytes.NewReader(c.json))
			tr.end(sp)
			if err != nil {
				return opResult{}, err
			}
			sp = tr.begin("scenario.Run")
			res, err := scenario.Run(spec)
			tr.end(sp)
			if err != nil {
				return opResult{}, err
			}
			if err := checkScenario(spec, res); err != nil {
				return opResult{}, err
			}
			if c.expect != nil {
				if err := c.expect(res); err != nil {
					return opResult{}, err
				}
			}
			counts := countsOf(res.Telemetry)
			counts["capture_frames_total"] = res.CaptureStats.Frames
			frames := counts["switch_frames_forwarded_total"] + counts["switch_frames_flooded_total"]
			if res.Campus != nil {
				frames = res.Campus.FabricFrames
			}
			return opResult{
				digest: scenarioDigest(spec, res),
				counts: counts,
				events: counts["sim_events_executed_total"],
				frames: frames,
			}, nil
		},
	}
}

// checkScenario holds the expectations every scenario result must meet.
func checkScenario(spec *scenario.Spec, res *scenario.Result) error {
	want := time.Duration(spec.DurationSeconds * float64(time.Second))
	if res.Duration != want {
		return fmt.Errorf("ran %v of virtual time, want %v", res.Duration, want)
	}
	c := countsOf(res.Telemetry)
	if c["sim_events_executed_total"] == 0 || res.CaptureStats.Frames == 0 {
		return fmt.Errorf("no simulated work: %d events, %d captured frames",
			c["sim_events_executed_total"], res.CaptureStats.Frames)
	}
	if res.AttackerForged == 0 && !hasAttack(spec, "poison", "reply-race") {
		return fmt.Errorf("attack timeline %v forged nothing", spec.Attacks)
	}
	if (spec.Faults != nil) != (res.FaultStats != nil) {
		return fmt.Errorf("fault plan present %v but fault stats present %v",
			spec.Faults != nil, res.FaultStats != nil)
	}
	if len(res.StackStats) != len(stackLabels(spec)) {
		return fmt.Errorf("%d stack results, want one per stack label %v", len(res.StackStats), stackLabels(spec))
	}
	// Table 3: these five detect a MITM on the gateway binding.
	if hasAttack(spec, "mitm", "") && deploysAny(spec, registry.NameArpwatch,
		registry.NameSnortLike, registry.NameActiveProbe, registry.NameMiddleware,
		registry.NameHybridGuard) && alertTotal(res) == 0 {
		return fmt.Errorf("MITM under a Table 3 detector raised no alert")
	}
	return nil
}

// stackLabels lists the distinct stacks the spec deploys; the result
// reports one correlation summary per label.
func stackLabels(spec *scenario.Spec) map[string]bool {
	labels := map[string]bool{}
	for _, st := range spec.Stacks {
		labels[st.Label()] = true
	}
	if spec.Campus != nil {
		for _, d := range spec.Campus.Deployments {
			for _, st := range d.Stacks {
				labels[st.Label()] = true
			}
		}
	}
	return labels
}

func hasAttack(spec *scenario.Spec, typ, variant string) bool {
	for _, a := range spec.Attacks {
		if a.Type == typ && (variant == "" || a.Variant == variant) {
			return true
		}
	}
	return false
}

// deployedNames lists every scheme the spec deploys, anywhere.
func deployedNames(spec *scenario.Spec) []string {
	var out []string
	add := func(ss []scenario.SchemeSpec, sts []registry.Stack) {
		for _, s := range ss {
			out = append(out, s.Name)
		}
		for _, st := range sts {
			for _, s := range st.Schemes {
				out = append(out, s.Name)
			}
		}
	}
	add(spec.Schemes, spec.Stacks)
	if spec.Campus != nil {
		for _, d := range spec.Campus.Deployments {
			add(d.Schemes, d.Stacks)
		}
	}
	return out
}

func deploysAny(spec *scenario.Spec, names ...string) bool {
	for _, d := range deployedNames(spec) {
		for _, n := range names {
			if d == n {
				return true
			}
		}
	}
	return false
}

func alertTotal(res *scenario.Result) int {
	n := 0
	for _, v := range res.AlertsByScheme {
		n += v
	}
	return n
}

// scenarioDigest hashes a result. S-ARP and TARP sign with ECDSA, whose DER
// signatures vary in length from run to run, so for specs deploying them
// every byte count is left out.
func scenarioDigest(spec *scenario.Spec, res *scenario.Result) string {
	r := *res
	if deploysAny(spec, registry.NameSARP, registry.NameTARP) {
		r.AttackerSniffed = 0
		r.CaptureStats.Bytes = 0
		snap := r.Telemetry
		snap.Counters = nil
		for _, p := range res.Telemetry.Counters {
			if !strings.Contains(p.Name, "bytes") {
				snap.Counters = append(snap.Counters, p)
			}
		}
		r.Telemetry = snap
	}
	return hashOf(struct {
		R *scenario.Result
		D time.Duration // Result.Duration is left out of its JSON
	}{&r, r.Duration})
}

func marshalCases(specs []*scenario.Spec, expect func(*scenario.Spec) func(*scenario.Result) error) ([]scenarioCase, error) {
	cases := make([]scenarioCase, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		cases[i].json = b
		if expect != nil {
			cases[i].expect = expect(s)
		}
	}
	return cases, nil
}

func setupLANMix(seed int64) (*pool, error) {
	cases, err := marshalCases(genLANMix(seed), nil)
	if err != nil {
		return nil, err
	}
	return scenarioPool(cases), nil
}

func setupCAMFlood(seed int64) (*pool, error) {
	cases, err := marshalCases(genCAMFlood(seed), func(spec *scenario.Spec) func(*scenario.Result) error {
		guarded := deploysAny(spec, registry.NamePortSecurity)
		flood := uint64(spec.Attacks[0].Count)
		return func(res *scenario.Result) error {
			c := countsOf(res.Telemetry)
			if res.AlertsByScheme[registry.NameFloodDetect] == 0 {
				return fmt.Errorf("flood-detect raised no alert on a %d-frame flood", res.AttackerForged)
			}
			if guarded {
				if res.CAMEntries >= camCapacity || res.SwitchFiltered < flood ||
					res.AlertsByScheme[registry.NamePortSecurity] == 0 {
					return fmt.Errorf("port security let the flood through: %d CAM entries, %d of %d frames filtered",
						res.CAMEntries, res.SwitchFiltered, flood)
				}
				return nil
			}
			if res.CAMEntries != camCapacity {
				return fmt.Errorf("CAM ends with %d entries, want its capacity %d", res.CAMEntries, camCapacity)
			}
			if c["switch_frames_flooded_total"] == 0 || c["switch_learn_misses_total"] == 0 {
				return fmt.Errorf("full CAM never failed open: %d flooded, %d learn misses",
					c["switch_frames_flooded_total"], c["switch_learn_misses_total"])
			}
			if c["switch_cam_evictions_total"] == 0 {
				return fmt.Errorf("the refill reclaimed no expired CAM entry")
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return scenarioPool(cases), nil
}

func setupCampus(seed int64) (*pool, error) {
	specs := genCampus(seed, runtime.NumCPU())
	cases, err := marshalCases(specs, func(spec *scenario.Spec) func(*scenario.Result) error {
		cs := spec.Campus
		return func(res *scenario.Result) error {
			if res.Campus == nil || res.Campus.LANs != cs.LANs || res.Campus.Hosts != cs.LANs*cs.HostsPerLAN {
				return fmt.Errorf("campus result %+v does not match %d LANs of %d hosts", res.Campus, cs.LANs, cs.HostsPerLAN)
			}
			if res.Campus.CrossLANFrames == 0 {
				return fmt.Errorf("no frame crossed the backbone")
			}
			fs := res.FaultStats
			if fs == nil || fs.TrunkPartitions == 0 || fs.RouterFlushes == 0 {
				return fmt.Errorf("campus faults did not fire: %+v", fs)
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	p := scenarioPool(cases)
	p.layers = func(tr *tracer) (map[string]float64, error) {
		return campusBuild(specs[0], tr), nil
	}
	return p, nil
}

// campusBuild assembles the first spec's topology once with
// labnet.NewCampus, between forced collections, to price assembly per
// host. Two collections on each side empty the sync.Pool caches, so the
// build pays for everything it holds.
func campusBuild(spec *scenario.Spec, tr *tracer) map[string]float64 {
	cs := spec.Campus
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := tr.begin("labnet.NewCampus")
	start := time.Now()
	c := labnet.NewCampus(labnet.CampusConfig{
		Seed: spec.Seed, LANs: cs.LANs, HostsPerLAN: cs.HostsPerLAN,
		Workers: cs.Workers, WithAttacker: true, AttackerLAN: cs.AttackerLAN,
	})
	build := time.Since(start)
	tr.end(sp)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	hosts := c.TotalHosts()
	c.Recycle()
	return map[string]float64{
		"labnet.campus_build_s": build.Seconds(),
		"labnet.bytes_per_host": (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(hosts),
	}
}

// --- replay ---

// replayStack is the operator deployment the capture is replayed through.
const replayStack = "arpwatch+snort-like+active-probe"

func setupReplay(seed int64) (*pool, error) {
	capture, records, gw, victim, err := genCapture(seed)
	if err != nil {
		return nil, err
	}
	st, err := registry.ParseStack(replayStack)
	if err != nil {
		return nil, err
	}
	cfg := func(workers int, alerts io.Writer, reg *telemetry.Registry) replay.Config {
		return replay.Config{Stack: st, Gateway: gw, Victim: victim,
			Workers: workers, Alerts: alerts, Telemetry: reg}
	}
	// The reference: the same capture replayed inline, on one goroutine.
	var ref bytes.Buffer
	eng, err := replay.New(cfg(1, &ref, nil))
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(replay.NewNDJSONSource(bytes.NewReader(capture))); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	if ref.Len() == 0 {
		return nil, fmt.Errorf("reference replay raised no alert on a MITM capture")
	}
	workers := runtime.NumCPU()
	var alerts bytes.Buffer
	return &pool{
		n: 1,
		run: func(_ int, tr *tracer) (opResult, error) {
			alerts.Reset()
			reg := telemetry.New()
			var out io.Writer = &alerts
			if tr != nil {
				out = &timedWriter{w: &alerts, tr: tr}
			}
			sp := tr.begin("replay.New")
			eng, err := replay.New(cfg(workers, out, reg))
			tr.end(sp)
			if err != nil {
				return opResult{}, err
			}
			var src replay.Source = replay.NewNDJSONSource(bytes.NewReader(capture))
			if tr != nil {
				src = &timedSource{src: src, tr: tr}
			}
			sp = tr.begin("replay.Run")
			stats, err := eng.Run(src)
			tr.end(sp)
			if err != nil {
				return opResult{}, err
			}
			if stats.Frames != uint64(records) || stats.Malformed != 0 {
				return opResult{}, fmt.Errorf("injected %d of %d records, %d malformed",
					stats.Frames, records, stats.Malformed)
			}
			if !bytes.Equal(alerts.Bytes(), ref.Bytes()) {
				return opResult{}, fmt.Errorf("alerts at %d workers differ from the 1-worker reference", workers)
			}
			counts := countsOf(reg.Snapshot())
			return opResult{
				digest: hashOf(struct {
					S replay.Stats
					A string
				}{stats, string(alerts.Bytes())}),
				counts: counts,
				events: counts["sim_events_executed_total"],
				frames: stats.Frames,
			}, nil
		},
		layers: func(tr *tracer) (map[string]float64, error) {
			ns, err := decodeNS(capture, tr)
			return map[string]float64{"codec.decode_ns_per_frame": ns}, err
		},
	}, nil
}

// decodeNS times frame.DecodeInto plus arppkt.DecodeInto over the
// capture's own records: the records are parsed once, untimed, then
// decoded in passes until a second has gone by.
func decodeNS(capture []byte, tr *tracer) (float64, error) {
	var wires [][]byte
	r := trace.NewNDJSONReader(bytes.NewReader(capture))
	for {
		var rec trace.WireRecord
		err := r.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		wires = append(wires, rec.Wire)
	}
	var f frame.Frame
	var p arppkt.Packet
	sp := tr.begin("codec.decode")
	defer tr.end(sp)
	start := time.Now()
	n := 0
	for time.Since(start) < time.Second {
		for _, w := range wires {
			if err := frame.DecodeInto(&f, w); err != nil {
				return 0, err
			}
			if f.Type == frame.TypeARP {
				if err := arppkt.DecodeInto(&p, f.Payload); err != nil {
					return 0, err
				}
			}
		}
		n += len(wires)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// timedSource wraps a replay.Source with spans around each call.
type timedSource struct {
	src replay.Source
	tr  *tracer
}

func (s *timedSource) ReadRaw(buf []byte) ([]byte, time.Duration, error) {
	sp := s.tr.begin("replay.Source.ReadRaw")
	b, at, err := s.src.ReadRaw(buf)
	s.tr.end(sp)
	return b, at, err
}

func (s *timedSource) Parse(item []byte, at time.Duration, rec *trace.WireRecord) error {
	sp := s.tr.begin("replay.Source.Parse")
	err := s.src.Parse(item, at, rec)
	s.tr.end(sp)
	return err
}

func (s *timedSource) ShardKey(item []byte) uint64 { return s.src.ShardKey(item) }

// timedWriter wraps Config.Alerts with a span around each write.
type timedWriter struct {
	w  io.Writer
	tr *tracer
}

func (w *timedWriter) Write(p []byte) (int, error) {
	sp := w.tr.begin("replay.Alerts.Write")
	n, err := w.w.Write(p)
	w.tr.end(sp)
	return n, err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
