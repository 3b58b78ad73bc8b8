package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
)

func TestGeneratorDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64, int) []job{"warm": genWarm, "cold": genCold} {
		a := jobListBytes(gen(defaultSeed, 60))
		b := jobListBytes(gen(defaultSeed, 60))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different job lists", name)
		}
		if c := jobListBytes(gen(heldOutSeed, 60)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds %d and %d gave the same job list", name, defaultSeed, heldOutSeed)
		}
	}
}

func TestColdFamiliesDistinctAndHalfSeeded(t *testing.T) {
	jobs := genCold(defaultSeed, 400)
	seen := map[string]bool{}
	seeded := 0
	for _, j := range jobs {
		key := j.Req.QASM + "|" + j.Req.Placement + "|" + string(rune('0'+j.Req.Chips))
		if seen[key] {
			t.Fatalf("family %s repeats", j.Family)
		}
		seen[key] = true
		if j.Seeded {
			seeded++
		}
	}
	if seeded != len(jobs)/2 {
		t.Errorf("%d of %d families seeded, want half", seeded, len(jobs))
	}
}

func TestWarmBlendIsExact(t *testing.T) {
	blend := warmBlock(warmFamilies())
	block, perKind := 0, map[string]int{}
	for _, n := range blend {
		block += n
	}
	counts := map[string]int{}
	for _, j := range genWarm(heldOutSeed, 3*block) {
		counts[j.Family]++
		perKind[j.Kind]++
	}
	for fam, n := range blend {
		if counts[fam] != 3*n {
			t.Errorf("family %s: %d jobs in 3 blocks, want %d", fam, counts[fam], 3*n)
		}
	}
	if len(perKind) != 5 {
		t.Errorf("%d job kinds in the mix, want 5", len(perKind))
	}
	for kind, n := range perKind {
		if n != 3*warmKindShare {
			t.Errorf("kind %s: %d jobs in 3 blocks, want %d", kind, n, 3*warmKindShare)
		}
	}
}

func TestSelfTimesWithOverlappingChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "replay.job", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20, 30] ms, and a third
		// that runs past its parent's end.
		{ID: 2, Parent: 1, Name: "runner.run", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "runner.merge", Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "wire.encode", Start: 90 * ms, End: 110 * ms},
		// A grandchild inside span 2.
		{ID: 5, Parent: 2, Name: "machine.run", Start: 12 * ms, End: 18 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 - |[10,40] ∪ [90,100]| = 100 - 40.
		"replay": 60 * time.Millisecond,
		// runner.run 20 - 6 plus runner.merge 20.
		"runner":  34 * time.Millisecond,
		"wire":    20 * time.Millisecond,
		"machine": 6 * time.Millisecond,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self %s = %v, want %v", l, got[l], d)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1009)
	for i := range xs {
		xs[i] = float64(i)
	}
	// Rank of p99 in 1009 samples is 999: only 10 samples lie beyond.
	if v, err := percentile(xs, 99); err != nil || v != 998 {
		t.Errorf("p99 of 1009 samples = %v, %v; want 998", v, err)
	}
	// 999 samples: rank 990 leaves 9 beyond.
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(xs[:1000], 99); err != nil {
		t.Errorf("p99 of 1000 samples (10 beyond) refused: %v", err)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if !strings.Contains(string(data), `"setup_s"`) {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}

func TestLatencyReportsTheRunsP99(t *testing.T) {
	ms := make([]float64, 4000)
	for i := range ms {
		ms[i] = 1
		if i >= 1000 && i < 1500 && i%10 == 0 {
			ms[i] = 50 // one stretch where a tenth of the jobs stall
		}
	}
	// No kernel timings: the figures stay raw, as on the serve workloads.
	rc := &runCtx{values: map[string]float64{}}
	if err := rc.latency(ms, "test"); err != nil {
		t.Fatal(err)
	}
	// 50 of 4000 samples (1.25%) stall, so the run's p99 is a stall.
	if got := rc.values["latency_p99_ms"]; got != 50 {
		t.Errorf("p99 = %v, want 50", got)
	}
	if got := rc.values["latency_p50_ms"]; got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
}

func TestHostCorrection(t *testing.T) {
	// The kernel took twice its reference time, apart from one run cut
	// short and one stalled, which the trimmed mean leaves out.
	kernel := make([]float64, 20)
	for i := range kernel {
		kernel[i] = 2 * calRefMs
	}
	kernel[3], kernel[11] = 0.1, 500
	rc := &runCtx{values: map[string]float64{}, host: hostClock{ms: kernel}}
	if got := rc.host.scale(); got != 0.5 {
		t.Fatalf("scale = %v, want 0.5", got)
	}
	// On a host running at half speed, times halve and rates double.
	rc.timed("latency_p50_ms", 8, "ms", "test")
	rc.timed("shots_per_s", 500, "1/s", "test")
	if got := rc.values["latency_p50_ms"]; got != 4 {
		t.Errorf("corrected latency = %v, want 4", got)
	}
	if got := rc.values["shots_per_s"]; got != 1000 {
		t.Errorf("corrected rate = %v, want 1000", got)
	}
}

func TestCalibrationKernelIsFixedWork(t *testing.T) {
	if a, b := calKernel(calSteps), calKernel(calSteps); a != b || a == 0 {
		t.Errorf("kernel results %d and %d, want equal and non-zero", a, b)
	}
}

func TestShotsTracedCompileMatchesCompileFresh(t *testing.T) {
	spec, err := shotsSpec(artifact.New(1), machine.DeriveSeed(defaultSeed, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplayer(newTracer(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.compileChecked(spec, false, 0, -1); err != nil {
		t.Fatal(err)
	}
}
