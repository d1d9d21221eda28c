package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload at the reduced "small" scale.

type catalogueFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []catalogueMetric `json:"end_to_end"`
	PerLayer []catalogueMetric `json:"per_layer"`
}

type catalogueMetric struct {
	Name       string `json:"name"`
	Unit       string `json:"unit"`
	Better     string `json:"better"`
	Layer      string `json:"layer"`
	RecordedOn any    `json:"recorded_on"`
	Moves      string `json:"moves"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func loadCatalogue(t *testing.T) catalogueFile {
	var c catalogueFile
	readJSON(t, "metrics.json", &c)
	return c
}

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json lists exactly the
// catalogue's workloads and metrics, with the same units and
// directions, and every per-layer metric names its layer and the
// end-to-end metric it should move.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	cat := loadCatalogue(t)
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []catalogueMetric       `json:"end_to_end"`
		PerLayer  []catalogueMetric       `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var want, got []string
	for _, w := range cat.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range bench.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, catalogue %v", got, want)
	}
	key := func(ms []catalogueMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit+" "+m.Better)
		}
		return out
	}
	if g, w := key(bench.EndToEnd), key(cat.EndToEnd); !reflect.DeepEqual(g, w) {
		t.Errorf("BENCHMARK.json end_to_end %v, catalogue %v", g, w)
	}
	if g, w := key(bench.PerLayer), key(cat.PerLayer); !reflect.DeepEqual(g, w) {
		t.Errorf("BENCHMARK.json per_layer %v, catalogue %v", g, w)
	}
	for _, m := range cat.PerLayer {
		if m.Layer == "" || m.Moves == "" || m.RecordedOn == nil {
			t.Errorf("%s: catalogue entry lacks its layer, its workload or what it should move", m.Name)
		}
	}
}

func names(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEveryMetricEmitted runs each workload untraced and traced at the
// small scale: every end-to-end metric, and every per-layer metric of
// the workload's layers, is emitted and has a unit; the output checks
// pass, and tracing does not change the outputs.
func TestEveryMetricEmitted(t *testing.T) {
	cat := loadCatalogue(t)
	units := map[string]string{}
	for _, m := range append(cat.EndToEnd, cat.PerLayer...) {
		units[m.Name] = m.Unit
	}
	var e2e []string
	for _, m := range cat.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	for _, w := range cat.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, scale: "small", tmp: t.TempDir(), start: time.Now()}
			plain, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := names(plain.Metrics); !reflect.DeepEqual(got, e2e) {
				t.Errorf("untraced metrics %v, want %v", got, e2e)
			}
			cfg.traced = true
			traced, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, m := range cat.PerLayer {
				// The runner derives the tracing overhead from the
				// traced run's wall_s.
				if m.RecordedOn == w.Name && !strings.HasPrefix(m.Name, "trace.overhead_s.") {
					want = append(want, m.Name)
				}
			}
			want = append(want, "wall_s")
			sort.Strings(want)
			if got := names(traced.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			for _, res := range []*result{plain, traced} {
				for name, v := range res.Metrics {
					if units[name] == "" {
						t.Errorf("%s has no unit", name)
					}
					if v < 0 {
						t.Errorf("%s = %v", name, v)
					}
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d checks failed: %v", res.Traced, res.Failed, res.Attempted, res.Failures)
				}
			}
			if !reflect.DeepEqual(plain.Outputs, traced.Outputs) {
				t.Errorf("traced outputs differ from untraced outputs")
			}
		})
	}
}

// TestPinnedSeedChecked: the small-scale default seed has pins, they
// hold, and a deliberately wrong pinned value fails the check.
func TestPinnedSeedChecked(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: "repro-detect", seed: 1, scale: "small", tmp: t.TempDir(), start: time.Now()}
	want, ok := pins[pinKey(cfg)]
	if !ok || len(want) == 0 {
		t.Fatalf("no pins for %s", pinKey(cfg))
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("pinned run failed: %v", res.Failures)
	}

	good := newChecker()
	good.outputs = res.Outputs
	good.comparePins(want)
	if good.failed != 0 || good.attempted != len(want) {
		t.Fatalf("pins: %d of %d checks failed", good.failed, good.attempted)
	}
	wrong := map[string]string{}
	for k, v := range want {
		wrong[k] = v
	}
	wrong["module.A1.parbor"] += "1"
	bad := newChecker()
	bad.outputs = res.Outputs
	bad.comparePins(wrong)
	if bad.failed != 1 {
		t.Fatalf("a wrong pinned value failed %d checks, want 1", bad.failed)
	}
}

// TestSelfSeconds: a span's self time excludes its children.
func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10e9, Parent: -1},
		{Name: "child", Start: 1e9, End: 4e9, Parent: 0},
		{Name: "child", Start: 5e9, End: 6e9, Parent: 0},
	}
	self := selfSeconds(spans)
	if self["root"] != 6 || self["child"] != 4 {
		t.Fatalf("self seconds %v, want root 6, child 4", self)
	}
}
