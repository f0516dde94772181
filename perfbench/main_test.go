package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, f.EndToEnd)
	check("per_layer", perLayerMetrics, f.PerLayer)
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"lan-mix":   func(seed int64) any { return genLANMix(seed) },
		"cam-flood": func(seed int64) any { return genCAMFlood(seed) },
		"campus":    func(seed int64) any { return genCampus(seed, 2) },
		"replay": func(seed int64) any {
			capture, records, gw, victim, err := genCapture(seed)
			if err != nil {
				t.Fatal(err)
			}
			return []any{string(capture), records, gw, victim}
		},
	}
	for name, gen := range gens {
		a, b, c := hashOf(gen(7)), hashOf(gen(7)), hashOf(gen(8))
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// TestShortRuns runs each workload briefly, untraced and twice traced:
// every named metric must come out with its unit, every operation must
// pass its checks, and the result digest and per-layer counts must repeat
// exactly.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w, seed: 3, seconds: 0.001, minOps: 1}
			var out bytes.Buffer
			e2e, err := endToEndRun(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, e2e, endToEndMetrics, out.String())
			for _, m := range endToEndMetrics {
				if v := e2e.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}

			var traced [2]*result
			for i := range traced {
				out.Reset()
				spans := filepath.Join(t.TempDir(), "spans.json")
				traced[i], err = tracedRun(cfg, spans, &out)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, traced[i], perLayerMetrics, out.String())
				if _, err := os.Stat(spans); err != nil {
					t.Errorf("traced run wrote no spans: %v", err)
				}
			}
			if traced[0].digest != e2e.digest || traced[1].digest != e2e.digest {
				t.Errorf("digests differ across runs: %s, %s, %s", e2e.digest, traced[0].digest, traced[1].digest)
			}
			if len(traced[0].counts) == 0 || !reflect.DeepEqual(traced[0].counts, traced[1].counts) {
				t.Errorf("per-layer counts differ across runs:\n%v\n%v", traced[0].counts, traced[1].counts)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef, out string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result correct=%v failed=%d attempted=%d:\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
		if !strings.Contains(out, d.name+" ") {
			t.Errorf("metric %s missing from the printed report", d.name)
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "replay", "--seed", "2", "--seconds", "0.001"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if got := strings.Join(sortedKeys(res), ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
	if err := run([]string{"--workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/netsim.(*Switch).learn":              "netsim",
		"repro/internal/schemes/arpwatch.(*Watcher).inspect": "schemes",
		"repro/internal/frame.DecodeInto":                    "codec",
		"repro/internal/arppkt.DecodeInto":                   "codec",
		"main.(*session).measure":                            "main",
		"runtime.mapaccess1_fast64":                          "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 0.5); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Errorf("p90 = %v", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestRefScale(t *testing.T) {
	ms := time.Millisecond
	// Seven samples; the host runs at half speed from the fourth on.
	samples := []time.Duration{ms, ms, ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms}
	got := refScale(samples, []int{1, 2, 5, 6})
	want := []float64{1, 1, 0.5, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("refScale = %v, want %v", got, want)
	}
	if got := refScale([]time.Duration{ms, 3 * ms}, []int{1}); got[0] != 0.5 {
		t.Errorf("two samples: scale %v, want 0.5", got[0])
	}
}
