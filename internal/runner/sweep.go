package runner

import (
	"fmt"
	"runtime"
	"sync"

	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// Parameter-sweep execution: the VQE/calibration-style workload where one
// circuit skeleton is run at many rotation-angle settings. The skeleton is
// compiled exactly once under its structural fingerprint
// (machine.CompileSkeleton); each point then costs one BindParams patch —
// a table copy, no re-placement, no re-scheduling — plus a Load and the
// shots themselves. Determinism mirrors Run: point k's shot stream is
// seeded from machine.DeriveSeed(base, k) (point 0 = base, so a one-point
// sweep is bit-identical to a plain run of the bound circuit), and results
// land at their point index regardless of worker count.

// SweepPoint is the outcome of one parameter setting.
type SweepPoint struct {
	Index  int
	Params map[string]float64
	Set    *ShotSet
}

// BuildSkeleton constructs one loaded machine replica for the spec,
// compiling the circuit under its bind-invariant structural fingerprint
// when cp is nil (a shared-cache hit on every replica after the first,
// and on every later sweep of the same skeleton). The loaded artifact is
// the unbound skeleton; callers patch it per point with BindParams.
func BuildSkeleton(spec Spec, cp *compiler.Compiled) (*machine.Machine, *compiler.Compiled, error) {
	m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
	if err != nil {
		return nil, nil, err
	}
	if cp == nil {
		if cp, err = m.CompileSkeleton(spec.Circuit, spec.Mapping); err != nil {
			return nil, nil, err
		}
	}
	if err := m.Load(cp); err != nil {
		return nil, nil, err
	}
	return m, cp, nil
}

// RunSweep compiles the spec's circuit once and executes `shots`
// repetitions at every parameter point, fanning points out across
// `workers` machine replicas (workers <= 0 picks GOMAXPROCS, capped at
// the point count). Each point's map must bind every symbolic parameter
// of the circuit. The returned points are ordered by point index and are
// byte-identical for every worker count.
func RunSweep(spec Spec, points []map[string]float64, shots, workers int) ([]SweepPoint, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	if len(points) == 0 {
		return []SweepPoint{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	first, skel, err := BuildSkeleton(spec, nil)
	if err != nil {
		return nil, err
	}
	machines := make([]*machine.Machine, workers)
	machines[0] = first
	for w := 1; w < workers; w++ {
		if machines[w], _, err = BuildSkeleton(spec, skel); err != nil {
			return nil, err
		}
	}
	return RunSweepOn(machines, skel, points, spec.Cfg.Seed, shots, spec.Circuit.NumBits, nil)
}

// RunSweepOn executes the sweep on caller-owned replicas loaded with the
// skeleton artifact skel (internal/service pools such replicas across
// jobs). Each point binds the skeleton, loads the bound artifact on one
// replica, and runs its shots there with base seed
// machine.DeriveSeed(base, pointIndex); results land at their point
// index, so the merge never depends on completion order. On error the
// lowest failing point index is reported.
//
// observe (nil for none) is called once per finished point, in
// completion order — which under multiple replicas is not point order,
// and may be concurrent, so the observer must be safe to call from
// several worker goroutines. The observed SweepPoint is the same value
// that lands in the returned slice. This is the streaming hook:
// internal/service publishes each observed point to /v1/jobs/{id}/stream
// watchers while the sweep is still running.
func RunSweepOn(machines []*machine.Machine, skel *compiler.Compiled, points []map[string]float64, base int64, shots, numBits int, observe func(SweepPoint)) ([]SweepPoint, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("runner: RunSweepOn with no machines")
	}
	if skel == nil {
		return nil, fmt.Errorf("runner: RunSweepOn with nil skeleton artifact")
	}
	out := make([]SweepPoint, len(points))
	runPoint := func(m *machine.Machine, k int) error {
		bound, err := skel.BindParams(points[k])
		if err != nil {
			return fmt.Errorf("runner: point %d: %w", k, err)
		}
		if err := m.Load(bound); err != nil {
			return fmt.Errorf("runner: point %d: %w", k, err)
		}
		set, err := RunOn([]*machine.Machine{m}, machine.DeriveSeed(base, k), shots, numBits)
		if err != nil {
			return fmt.Errorf("runner: point %d: %w", k, err)
		}
		out[k] = SweepPoint{Index: k, Params: points[k], Set: set}
		if observe != nil {
			observe(out[k])
		}
		return nil
	}
	if len(machines) == 1 {
		for k := range points {
			if err := runPoint(machines[0], k); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	idx := make(chan int)
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *machine.Machine) {
			defer wg.Done()
			for k := range idx {
				errs[k] = runPoint(m, k)
			}
		}(m)
	}
	for k := range points {
		idx <- k
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
