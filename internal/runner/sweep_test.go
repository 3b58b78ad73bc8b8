package runner

import (
	"reflect"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/machine"
	"dhisq/internal/workloads"
)

func sweepSpec(n, layers int) (Spec, []map[string]float64) {
	c := workloads.VQEAnsatz(n, layers)
	cfg := machine.DefaultConfig(n)
	cfg.Seed = 11
	points := make([]map[string]float64, 5)
	for k := range points {
		points[k] = workloads.VQEAnsatzPoint(n, layers, k)
	}
	return Spec{Circuit: c, MeshW: (n + 1) / 2, MeshH: 2, Cfg: cfg}, points
}

// TestRunSweepDeterministicAcrossWorkers: the merged sweep is
// byte-identical for every worker count, and every point carries real
// sampled outcomes.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	w1, err := RunSweep(spec, points, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := RunSweep(spec, points, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w3) {
		t.Fatal("sweep results differ across worker counts")
	}
	for k, pt := range w1 {
		if pt.Index != k || len(pt.Set.Shots) != 8 {
			t.Fatalf("point %d malformed: %+v", k, pt)
		}
	}
}

// TestRunSweepMatchesBoundRuns: point k of a sweep is bit-identical to a
// plain Run of the circuit bound at point k with the derived point seed —
// the bind path changes cost, never results.
func TestRunSweepMatchesBoundRuns(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	sweep, err := RunSweep(spec, points, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range sweep {
		bound, err := spec.Circuit.Bind(points[k])
		if err != nil {
			t.Fatal(err)
		}
		bs := spec
		bs.Circuit = bound
		bs.Cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		want, err := Run(bs, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt.Set, want) {
			t.Fatalf("point %d differs from a plain run of the bound circuit", k)
		}
	}
}

// TestRunSweepHonorsSchedule: Cfg.Schedule reaches the skeleton compile.
// A padded sweep gives, point for point, the histograms and makespans of
// padded Runs of each bound circuit, and its makespans differ from the
// fixed sweep's, so a schedule dropped on the skeleton path cannot pass.
func TestRunSweepHonorsSchedule(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	fixed, err := RunSweep(spec, points, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cfg.Schedule = "padded"
	padded, err := RunSweep(spec, points, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for k, pt := range padded {
		bound, err := spec.Circuit.Bind(points[k])
		if err != nil {
			t.Fatal(err)
		}
		bs := spec
		bs.Circuit = bound
		bs.Cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		want, err := Run(bs, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt.Set.Histogram(), want.Histogram()) {
			t.Fatalf("point %d: padded sweep histogram differs from a padded run", k)
		}
		if !reflect.DeepEqual(pt.Set.Makespans(), want.Makespans()) {
			t.Fatalf("point %d: padded sweep makespans %v, padded run %v", k, pt.Set.Makespans(), want.Makespans())
		}
		if !reflect.DeepEqual(pt.Set.Makespans(), fixed[k].Set.Makespans()) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("padded and fixed sweeps have identical makespans: the schedule never reached the compiler")
	}
}

// TestRunSweepCompilesOnce: an N-point sweep charges the shared cache
// exactly one compile, and a repeat sweep charges none.
func TestRunSweepCompilesOnce(t *testing.T) {
	spec, points := sweepSpec(7, 1) // unique shape: no other test caches it
	before := artifact.Shared.Stats()
	if _, err := RunSweep(spec, points, 2, 2); err != nil {
		t.Fatal(err)
	}
	mid := artifact.Shared.Stats()
	if got := mid.Misses - before.Misses; got != 1 {
		t.Fatalf("first sweep compiled %d times, want 1", got)
	}
	if _, err := RunSweep(spec, points, 2, 2); err != nil {
		t.Fatal(err)
	}
	after := artifact.Shared.Stats()
	if got := after.Misses - mid.Misses; got != 0 {
		t.Fatalf("repeat sweep compiled %d times, want 0", got)
	}
}

// TestRunSweepRejectsBadPoints: a point missing a parameter fails with
// the lowest failing index, and a plain Run of a skeleton is rejected.
func TestRunSweepRejectsBadPoints(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	points[2] = map[string]float64{"t0_0": 1} // incomplete
	if _, err := RunSweep(spec, points, 1, 2); err == nil {
		t.Fatal("incomplete point accepted")
	}
	if _, err := Run(spec, 1, 1); err == nil {
		t.Fatal("running an unbound skeleton accepted")
	}
}

// TestRunSweepEdgeCases: degenerate inputs fail (or no-op) cleanly.
func TestRunSweepEdgeCases(t *testing.T) {
	spec, points := sweepSpec(6, 1)
	if out, err := RunSweep(spec, nil, 4, 2); err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v %v", out, err)
	}
	if _, err := RunSweep(Spec{}, points, 1, 1); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := RunSweep(spec, points, -1, 1); err == nil {
		t.Fatal("negative shots accepted")
	}
	if _, err := RunSweepOn(nil, nil, points, 1, 1, 0, nil); err == nil {
		t.Fatal("no machines accepted")
	}
	m, skel, err := BuildSkeleton(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepOn([]*machine.Machine{m}, nil, points, 1, 1, 0, nil); err == nil {
		t.Fatal("nil skeleton accepted")
	}
	// Zero shots: points come back with empty sets, deterministically.
	out, err := RunSweepOn([]*machine.Machine{m}, skel, points, 1, 0, spec.Circuit.NumBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(points) || len(out[0].Set.Shots) != 0 {
		t.Fatalf("zero-shot sweep malformed: %+v", out)
	}
}
