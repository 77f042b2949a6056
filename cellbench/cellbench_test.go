package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself as the measured child or a shard worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 {
		var err error
		switch os.Args[1] {
		case "-child":
			err = runChild(os.Args[2])
		case "-worker":
			err = runWorkerMode(os.Args[2], os.Args[3:])
		default:
			os.Exit(m.Run())
		}
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScale keeps the scenes small enough for unit tests while serve
// still has its 18 live advances.
const tinyScale = 0.1

func tinyRun(t *testing.T, workload string, traced, plant bool) result {
	t.Helper()
	var out bytes.Buffer
	err := runBenchmark(&out, options{
		Workload: workload, Seed: 3, Seconds: 0.05, Trace: traced,
		WorkDir: t.TempDir(), Scale: tinyScale, Plant: plant,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return res
}

func TestTinyRunsEmitEveryMetricWithItsUnit(t *testing.T) {
	units := map[string]string{}
	for _, m := range layers.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range layers.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, wl, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayerNames()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", wl, traced, name)
					continue
				}
				if m.Unit != units[name] {
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl, traced, name, m.Unit, units[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, name, m.Value)
				}
			}
		}
	}
}

func TestSameSeedSameInputDigest(t *testing.T) {
	for _, wl := range workloadNames() {
		digest := func(seed uint64) string {
			sp, err := workloads[wl].scene(options{Workload: wl, Seed: seed, Seconds: 1, Scale: tinyScale}, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			return sp.Digest
		}
		a, b, c := digest(5), digest(5), digest(6)
		if a != b {
			t.Errorf("%s: seed 5 gave digests %s and %s", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", wl, a)
		}
	}
}

func TestPlantedMismatchIsCountedAsFailed(t *testing.T) {
	for _, wl := range workloadNames() {
		res := tinyRun(t, wl, false, true)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: planted mismatch not counted: correct=%v failed=%d of %d", wl, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestPeakRSSLeavesOutTheGenerator holds, in the generating process,
// about twice the resident memory of the largest tiny workload (serve,
// ≈240 MB): the measured peak must stay the workload's own.
func TestPeakRSSLeavesOutTheGenerator(t *testing.T) {
	const ballastMB = 512
	ballast := make([]byte, ballastMB<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	for _, wl := range workloadNames() {
		res := tinyRun(t, wl, false, false)
		if got := res.Metrics["peak_rss_mb"].Value; got >= ballastMB*3/4 {
			t.Errorf("%s: peak_rss_mb %.1f with a %d MB generator: the generator's memory is counted", wl, got, ballastMB)
		}
	}
	runtime.KeepAlive(ballast)
}

// TestBenchmarkJSONMatchesMap keeps the repository's BENCHMARK.json and
// this package's map naming the same metrics, units and bounds.
func TestBenchmarkJSONMatchesMap(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []named                 `json:"end_to_end"`
		PerLayer  []named                 `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != "study,shards,serve" {
		t.Errorf("BENCHMARK.json workloads %v", wls)
	}
	if len(b.EndToEnd) != len(layers.EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, map %d", len(b.EndToEnd), len(layers.EndToEnd))
	}
	for i, m := range layers.EndToEnd {
		if got := b.EndToEnd[i]; got != (named{m.Name, m.Unit, m.Better, m.Bound}) {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, map %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(layers.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, map %d", len(b.PerLayer), len(layers.PerLayer))
	}
	for i, m := range layers.PerLayer {
		if got := b.PerLayer[i]; got != (named{Name: m.Name, Unit: m.Unit, Better: m.Better}) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, map %s %s %s", i, got, m.Name, m.Unit, m.Better)
		}
	}
}
