// Command dhisq-bench regenerates the paper's tables and figures. Each
// experiment prints the measured values next to the published ones where
// applicable; EXPERIMENTS.md records the comparison.
//
// Experiments with a performance dimension also emit machine-readable
// BENCH_<exp>.json files (benchmark name, shots/sec, makespan) into -out,
// giving later changes a perf trajectory to compare against.
//
// Usage:
//
//	dhisq-bench -exp NAME|all
//	            [-scale N] [-seed S] [-shots N] [-workers W] [-jobs N] [-points N] [-out DIR]
//	            [-topo mesh|torus|tree|all] [-link-bw N] [-placement P|all]
//
// Experiment names come from the single registry in main (the -exp flag's
// help text enumerates them); an unknown name lists every valid one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/exp"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

// experiment is one -exp entry: everything dispatch, the -exp help text,
// and the unknown-name error derive from the one registry in main.
type experiment struct {
	name string
	fn   func() error
}

func main() {
	scale := flag.Int("scale", 1, "divide Fig. 15 benchmark sizes by this factor")
	seed := flag.Int64("seed", 1, "measurement outcome seed")
	shots := flag.Int("shots", 200, "repetitions for the shots experiment")
	workers := flag.Int("workers", 4, "worker replicas for the shots experiment")
	jobs := flag.Int("jobs", 40, "repeat submissions for the cache experiment")
	points := flag.Int("points", 64, "parameter points for the sweep experiment")
	topo := flag.String("topo", "all", "fabric experiment topology: mesh, torus, tree, or all")
	linkBW := flag.Int64("link-bw", 0, "fabric link bandwidth as cycles per message (0 = sweep 0,1,2,4,8,16)")
	placePolicy := flag.String("placement", "all", "placement experiment policy (all = rowmajor vs interaction)")
	outDir := flag.String("out", ".", "directory for BENCH_*.json files")

	experiments := []experiment{}
	register := func(name string, fn func() error) {
		experiments = append(experiments, experiment{name, fn})
	}

	register("table1", func() error {
		fmt.Print(exp.Table1().Render())
		return nil
	})
	register("fig11", func() error {
		circle, err := exp.Fig11DrawCircle(64, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("(a) draw circle:   R=%.3f center=(%.3f,%.3f) interference RMSE=%.4f\n",
			circle.Circle.R, circle.Circle.X0, circle.Circle.Y0, circle.RMSE)
		spec, err := exp.Fig11Spectroscopy(41, 80, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("(b) spectroscopy:  f0=%.4f GHz (true %.4f, paper 4.62)\n", spec.Fit.X0, spec.TrueF0)
		rabi, err := exp.Fig11Rabi(33, 80, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("(c) rabi:          pi amplitude=%.4f (true %.4f)\n", rabi.PiAmp, rabi.TruePi)
		t1, err := exp.Fig11T1(21, 150, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("(d) relaxation:    T1=%.2f us (true %.2f, paper 9.9)\n", t1.T1Us, t1.TrueT1Us)
		return nil
	})
	register("fig13", func() error {
		res, err := exp.Fig13SyncWaveforms()
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	register("fig14", func() error {
		res, err := exp.Fig14LongRange([]int{2, 4, 8, 16, 32}, true, *seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		return nil
	})
	register("fig15", func() error {
		res, err := exp.Fig15Runtime(exp.Fig15Options{ScaleDiv: *scale, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		fmt.Printf("paper: mean normalized runtime 0.772 (22.8%% reduction)\n")
		rows := make([]benchRecord, 0, len(res.Rows))
		for _, row := range res.Rows {
			rows = append(rows, benchRecord{
				Name: row.Name, Makespan: int64(row.BISP), Normalized: row.Normalized,
			})
		}
		return writeBenchJSON(*outDir, "fig15", rows)
	})
	register("ablation", func() error {
		rows, err := exp.AblationSyncAdvance(nil, *scale, *seed)
		if err != nil {
			return err
		}
		fmt.Print(exp.RenderAblation(rows))
		fmt.Println("booking-in-advance (Fig. 6) vs sync-immediately-before (QubiC style, §2.1.3)")
		return nil
	})
	register("fig16", func() error {
		res, err := exp.Fig16Fidelity(0, 0, nil, *seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		fmt.Printf("paper: ~5x infidelity reduction across the T1 sweep\n")
		return nil
	})
	register("shots", func() error {
		return benchShots(*outDir, *scale, *seed, *shots, *workers)
	})
	register("cache", func() error {
		return benchCache(*outDir, *seed, *jobs)
	})
	register("sweep", func() error {
		return benchSweep(*outDir, *seed, *points, *workers)
	})
	register("fabric", func() error {
		return benchFabric(*outDir, *seed, *topo, *linkBW)
	})
	register("placement", func() error {
		return benchPlacement(*outDir, *seed, *placePolicy, *linkBW)
	})
	register("feedback", func() error {
		return benchFeedback(*outDir, *seed, *linkBW)
	})
	register("kernels", func() error {
		return benchKernels(*outDir, *seed)
	})
	register("serve-load", func() error {
		return benchServeLoad(*outDir, *seed, *jobs, *workers)
	})
	register("collective", func() error {
		return benchCollective(*outDir, *seed, *topo, *linkBW)
	})
	register("remote", func() error {
		return benchRemote(*outDir, *seed, *linkBW)
	})

	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	which := flag.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", or all")
	flag.Parse()

	known := *which == "all"
	for _, e := range experiments {
		known = known || e.name == *which
	}
	if !known {
		fmt.Fprintf(os.Stderr, "dhisq-bench: unknown experiment %q (want %s, or all)\n",
			*which, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, e := range experiments {
		if *which != "all" && *which != e.name {
			continue
		}
		fmt.Printf("=== %s ===\n", e.name)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// benchCollective runs the collective-vs-naive schedule sweep over
// participant count × topology × link bandwidth, self-checks every cell's
// reduced values against the host oracle, enforces the never-worse /
// strictly-better-somewhere makespan gate on the full sweep, and emits
// BENCH_collective.json.
func benchCollective(outDir string, seed int64, topoName string, linkBW int64) error {
	opt := exp.CollectiveOptions{Seed: seed}
	fullSweep := topoName == "" || topoName == "all"
	if !fullSweep {
		k, err := network.ParseTopology(topoName)
		if err != nil {
			return err
		}
		opt.Topologies = []network.TopologyKind{k}
	}
	if linkBW > 0 {
		opt.Serializations = []sim.Time{sim.Time(linkBW)}
	}
	points, err := exp.CollectiveSweep(opt)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCollective(points))
	if fullSweep {
		// The strictly-better clause names torus and tree cells, so the
		// gate only applies when the sweep covers every topology.
		if err := exp.CheckCollective(points); err != nil {
			return err
		}
		fmt.Println("values equal the naive oracle in every cell; topology-aware schedules never slower, strictly faster on torus and tree")
	}
	return writeBenchJSON(outDir, "collective", points)
}

// benchServeLoad runs the open-loop load sweep against the serving stack
// and the warm-vs-cold restart comparison through a throwaway store
// directory, enforces the restart-warm gate, and emits BENCH_serve.json.
func benchServeLoad(outDir string, seed int64, jobs, workers int) error {
	storeDir, err := os.MkdirTemp("", "dhisq-serve-load-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	res, err := exp.ServeLoad(exp.ServeLoadOptions{
		Seed: seed, JobsPerRate: jobs, Workers: workers, StoreDir: storeDir,
	})
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderServeLoad(res))
	if err := exp.CheckServeRestart(res); err != nil {
		return err
	}
	fmt.Println("restart-warm gate holds: zero compiles after restart, identical histograms")
	return writeBenchJSON(outDir, "serve", res)
}

// benchPlacement runs the placement-policy sweep under finite link
// bandwidth, asserts the interaction placer's not-worse/strictly-better
// invariants, and emits BENCH_placement.json.
func benchPlacement(outDir string, seed int64, policy string, linkBW int64) error {
	opt := exp.PlacementOptions{Seed: seed, LinkBW: sim.Time(linkBW)}
	fullSweep := policy == "" || policy == "all"
	if !fullSweep {
		// A single named policy still sweeps against the row-major
		// baseline so the table stays comparative.
		opt.Policies = []string{"rowmajor"}
		if policy != "rowmajor" {
			opt.Policies = append(opt.Policies, policy)
		}
	}
	points, err := exp.PlacementSweep(opt)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderPlacement(points))
	if fullSweep || policy == "interaction" {
		if err := exp.CheckPlacementImproves(points); err != nil {
			return err
		}
		fmt.Println("interaction-aware placement never worse than row-major on the hotspot; strictly better somewhere")
	}
	return writeBenchJSON(outDir, "placement", points)
}

// benchRemote sweeps multi-chip execution — workload × chip count × EPR
// latency × partition policy — enforces the cut-minimizing partition gate
// (interaction never cuts more remote gates than the contiguous row-major
// split, strictly fewer somewhere), and emits BENCH_remote.json.
func benchRemote(outDir string, seed, linkBW int64) error {
	points, err := exp.RemoteSweep(exp.RemoteOptions{Seed: seed, LinkBW: sim.Time(linkBW)})
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderRemote(points))
	if err := exp.CheckRemote(points); err != nil {
		return err
	}
	fmt.Println("interaction chip partition never cuts more remote gates than row-major; strictly fewer somewhere")
	return writeBenchJSON(outDir, "remote", points)
}

// benchFeedback runs each feedback workload cold (interaction placement)
// and again after congestion-feedback re-placement, enforces the
// strict-improvement gate on the hotspot, and emits BENCH_feedback.json.
func benchFeedback(outDir string, seed, linkBW int64) error {
	points, err := exp.FeedbackSweep(exp.FeedbackOptions{Seed: seed, LinkBW: sim.Time(linkBW)})
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderFeedback(points))
	if err := exp.CheckFeedbackImproves(points); err != nil {
		return err
	}
	fmt.Println("congestion-feedback re-placement strictly reduces hotspot stalls; no workload regresses")
	return writeBenchJSON(outDir, "feedback", points)
}

// benchFabric runs the topology × bandwidth congestion sweep, asserts the
// monotone stall-growth invariant, and emits BENCH_fabric.json.
func benchFabric(outDir string, seed int64, topoName string, linkBW int64) error {
	opt := exp.FabricOptions{Seed: seed}
	if topoName != "" && topoName != "all" {
		k, err := network.ParseTopology(topoName)
		if err != nil {
			return err
		}
		opt.Topologies = []network.TopologyKind{k}
	}
	if linkBW > 0 {
		// An explicit bandwidth still anchors the sweep at 0 so the
		// contention-free baseline (and the monotonicity check) survive.
		opt.Serializations = []sim.Time{0, linkBW}
	}
	points, err := exp.FabricSweep(opt)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderFabric(points))
	if err := exp.CheckFabricMonotone(points); err != nil {
		return err
	}
	fmt.Println("stall cycles grow monotonically as link bandwidth shrinks; ser=0 is stall-free")
	return writeBenchJSON(outDir, "fabric", points)
}

// benchRecord is one BENCH_*.json entry. ShotsPerSec is 0 for rows that
// only record a makespan (e.g. fig15 single runs).
type benchRecord struct {
	Name             string  `json:"name"`
	Shots            int     `json:"shots,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	Jobs             int     `json:"jobs,omitempty"`
	ShotsPerSec      float64 `json:"shots_per_sec,omitempty"`
	JobsPerSec       float64 `json:"jobs_per_sec,omitempty"`
	Makespan         int64   `json:"makespan_cycles"`
	Normalized       float64 `json:"normalized,omitempty"`
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild,omitempty"`
	SpeedupVsCold    float64 `json:"speedup_vs_cold,omitempty"`
	CacheHits        uint64  `json:"cache_hits,omitempty"`
	CacheMisses      uint64  `json:"cache_misses,omitempty"`
}

// writeBenchJSON writes records to BENCH_<name>.json under dir.
func writeBenchJSON(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// sweepRecord is one BENCH_sweep.json entry: the per-point cost of the
// two strategies for serving an angle sweep — a full Place→Lower→Schedule
// →Assemble compile of every bound circuit versus one structural compile
// plus a BindParams table patch per point — with the byte-equivalence and
// compile-once assertions baked in.
type sweepRecord struct {
	Name               string  `json:"name"`
	Points             int     `json:"points"`
	Params             int     `json:"params"`
	CompileUsPerPoint  float64 `json:"compile_us_per_point"`
	BindUsPerPoint     float64 `json:"bind_us_per_point"`
	Speedup            float64 `json:"bind_speedup_vs_compile"`
	CacheMisses        uint64  `json:"cache_misses"`
	CacheHits          uint64  `json:"cache_hits"`
	IdenticalArtifacts bool    `json:"identical_artifacts"`
}

// benchSweep measures the parameter-sweep workload the binding layer
// exists for (VQE outer loops, spectroscopy-style phase sweeps): it
// verifies that BindParams on the structural artifact is byte-for-byte
// identical to a fresh full compile of each bound circuit, requires the
// bind path to be >= 10x cheaper per point, runs the sweep end-to-end
// through runner.RunSweep asserting the skeleton compiled exactly once
// (misses == 1), and emits BENCH_sweep.json.
func benchSweep(outDir string, seed int64, points, workers int) error {
	if points < 2 {
		points = 2
	}
	cases := []struct {
		name  string
		circ  *circuit.Circuit
		point func(k int) map[string]float64
	}{
		{"vqe_n12x2", workloads.VQEAnsatz(12, 2), func(k int) map[string]float64 { return workloads.VQEAnsatzPoint(12, 2, k) }},
		{"qft_sweep_n16", workloads.QFTSweep(16), func(k int) map[string]float64 { return workloads.QFTSweepPoint(16, k) }},
	}
	records := make([]sweepRecord, 0, len(cases))
	for _, cs := range cases {
		pts := make([]map[string]float64, points)
		for k := range pts {
			pts[k] = cs.point(k)
		}
		cfg := machine.DefaultConfig(cs.circ.NumQubits)
		cfg.Backend = machine.BackendSeeded
		cfg.Seed = seed
		meshW, meshH := placement.AutoMesh(cs.circ.NumQubits)
		cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
		m, err := machine.NewForCircuit(cs.circ, meshW, meshH, cfg)
		if err != nil {
			return err
		}

		// Both strategies time best-of-rounds: the bind loop's whole
		// window is a few hundred microseconds, so a single scheduler
		// deschedule or GC pause inside one round must not flip the
		// CI-gating speedup assertion below.
		const rounds = 3
		opt := m.CompileOptions()
		full := make([]*compiler.Compiled, points)
		var compileUs float64
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for k, p := range pts {
				bc, err := cs.circ.Bind(p)
				if err != nil {
					return err
				}
				if full[k], err = m.CompileFresh(bc, nil, opt); err != nil {
					return err
				}
			}
			if us := float64(time.Since(start).Microseconds()) / float64(points); r == 0 || us < compileUs {
				compileUs = us
			}
		}

		// Bind path: one structural compile, one table patch per point.
		skel, err := m.CompileSkeleton(cs.circ, nil)
		if err != nil {
			return err
		}
		bound := make([]*compiler.Compiled, points)
		var bindUs float64
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for k, p := range pts {
				if bound[k], err = skel.BindParams(p); err != nil {
					return err
				}
			}
			if us := float64(time.Since(start).Microseconds()) / float64(points); r == 0 || us < bindUs {
				bindUs = us
			}
		}

		// Equivalence proof, point by point: the patched artifact must be
		// indistinguishable from the full compile of the bound circuit.
		for k := range pts {
			if !reflect.DeepEqual(full[k], bound[k]) {
				return fmt.Errorf("%s: point %d: bound artifact differs from full compile — bind contract broken", cs.name, k)
			}
		}

		// End-to-end compile-once invariant: the whole sweep through
		// runner.RunSweep costs exactly one compile on a cold cache.
		artifact.Shared.Clear()
		spec := runner.Spec{Circuit: cs.circ, MeshW: meshW, MeshH: meshH, Cfg: cfg}
		if _, err := runner.RunSweep(spec, pts, 1, workers); err != nil {
			return err
		}
		cacheStats := artifact.Shared.Stats()
		if cacheStats.Misses != 1 {
			return fmt.Errorf("%s: %d-point sweep compiled %d times, want exactly 1", cs.name, points, cacheStats.Misses)
		}

		speedup := compileUs / bindUs
		if speedup < 10 {
			return fmt.Errorf("%s: bind only %.1fx faster than full compile (%.1fus vs %.1fus per point), want >= 10x",
				cs.name, speedup, bindUs, compileUs)
		}
		records = append(records, sweepRecord{
			Name: cs.name, Points: points, Params: len(pts[0]),
			CompileUsPerPoint: compileUs, BindUsPerPoint: bindUs, Speedup: speedup,
			CacheMisses: cacheStats.Misses, CacheHits: cacheStats.Hits,
			IdenticalArtifacts: true,
		})
	}
	for _, r := range records {
		fmt.Printf("%-16s %4d points  compile %8.1f us/pt  bind %6.2f us/pt  %7.1fx  misses=%d\n",
			r.Name, r.Points, r.CompileUsPerPoint, r.BindUsPerPoint, r.Speedup, r.CacheMisses)
	}
	fmt.Println("bound artifacts byte-identical to full compiles; skeleton compiled once per sweep")
	return writeBenchJSON(outDir, "sweep", records)
}

// benchShots measures multi-shot throughput on one benchmark under the
// three strategies — legacy rebuild-per-shot, compile-once/reset at one
// worker, and the worker pool — verifying the merged outputs agree before
// reporting, and emits BENCH_shots.json.
func benchShots(outDir string, scale int, seed int64, shots, workers int) error {
	if shots < 1 {
		shots = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b, err := workloads.BuildScaled("bv_n400", scale*8)
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig(b.Qubits)
	cfg.Backend = machine.BackendSeeded
	cfg.Seed = seed
	spec := runner.Spec{
		Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
		Mapping: b.Mapping, Cfg: cfg,
	}

	measure := func(fn func() (*runner.ShotSet, error)) (*runner.ShotSet, float64, error) {
		start := time.Now()
		set, err := fn()
		if err != nil {
			return nil, 0, err
		}
		return set, float64(shots) / time.Since(start).Seconds(), nil
	}
	rebuildSet, rebuildRate, err := measure(func() (*runner.ShotSet, error) { return runner.RunRebuild(spec, shots) })
	if err != nil {
		return err
	}
	w1Set, w1Rate, err := measure(func() (*runner.ShotSet, error) { return runner.Run(spec, shots, 1) })
	if err != nil {
		return err
	}
	if w1Set.Histogram().String() != rebuildSet.Histogram().String() {
		return fmt.Errorf("shot strategies disagree — determinism invariant broken")
	}

	makespan := int64(w1Set.Shots[0].Result.Makespan)
	name := b.Name
	records := []benchRecord{
		{Name: name + "/rebuild", Shots: shots, Workers: 1, ShotsPerSec: rebuildRate, Makespan: makespan, SpeedupVsRebuild: 1},
		{Name: name + "/reset-w1", Shots: shots, Workers: 1, ShotsPerSec: w1Rate, Makespan: makespan, SpeedupVsRebuild: w1Rate / rebuildRate},
	}
	if workers > 1 {
		wnSet, wnRate, err := measure(func() (*runner.ShotSet, error) { return runner.Run(spec, shots, workers) })
		if err != nil {
			return err
		}
		if wnSet.Histogram().String() != rebuildSet.Histogram().String() {
			return fmt.Errorf("shot strategies disagree — determinism invariant broken")
		}
		records = append(records, benchRecord{
			Name: fmt.Sprintf("%s/reset-w%d", name, workers), Shots: shots, Workers: workers,
			ShotsPerSec: wnRate, Makespan: makespan, SpeedupVsRebuild: wnRate / rebuildRate,
		})
	}
	for _, r := range records {
		fmt.Printf("%-24s %8.1f shots/s  %5.2fx vs rebuild\n", r.Name, r.ShotsPerSec, r.SpeedupVsRebuild)
	}
	return writeBenchJSON(outDir, "shots", records)
}

// benchCache measures the repeat-circuit serving workload the artifact
// cache and replica pool exist for: many single-shot jobs for the same
// circuit. Cold pays compile + machine build per job (a fresh service
// over an empty private cache — the pre-cache behavior); warm submits
// through one long-lived service, which compiles exactly once and
// batches every later job onto pooled replicas. Results must be byte-identical; emits
// BENCH_cache.json.
func benchCache(outDir string, seed int64, jobs int) error {
	if jobs < 2 {
		jobs = 2
	}
	b, err := workloads.BuildScaled("qft_n30", 1)
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig(b.Qubits)
	cfg.Backend = machine.BackendSeeded
	submit := func(svc *service.Service) (service.JobStatus, error) {
		id, err := svc.Submit(service.Request{
			Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH,
			Mapping: b.Mapping, Cfg: &cfg, Shots: 1, Seed: seed,
		})
		if err != nil {
			return service.JobStatus{}, err
		}
		st, ok := svc.Wait(id)
		if !ok {
			return st, fmt.Errorf("job %s vanished", id)
		}
		if st.State != service.StateDone {
			return st, fmt.Errorf("job %s: %s (%s)", id, st.State, st.Err)
		}
		return st, nil
	}

	// Cold is the pre-serving world: nothing outlives a submission, so
	// each job gets a fresh service over an empty private cache —
	// machine build + full compile per job, no pooled replicas (and no
	// interference with the warm service's cached artifact). Warm is the
	// serving stack: one long-lived service, one compile, pooled
	// replicas. Rounds are interleaved and each strategy keeps its best
	// rate, so a slow scheduler patch on a shared host cannot sink one
	// side.
	const rounds = 3
	perRound := jobs / rounds
	if perRound < 1 {
		perRound = 1
	}
	before := artifact.Shared.Stats()
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	var coldRate, warmRate float64
	var coldRef, warmRef service.JobStatus
	if _, err := submit(svc); err != nil { // warm the cache + replica pool
		return err
	}
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < perRound; i++ {
			cold := service.New(service.Config{Workers: 1, Artifacts: artifact.New(1)})
			st, err := submit(cold)
			cold.Close()
			if err != nil {
				return err
			}
			coldRef = st
		}
		if rate := float64(perRound) / time.Since(start).Seconds(); rate > coldRate {
			coldRate = rate
		}
		start = time.Now()
		for i := 0; i < perRound; i++ {
			st, err := submit(svc)
			if err != nil {
				return err
			}
			warmRef = st
		}
		if rate := float64(perRound) / time.Since(start).Seconds(); rate > warmRate {
			warmRate = rate
		}
	}
	after := artifact.Shared.Stats()
	cacheStats := artifact.Stats{
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
	}
	warmJobs := rounds*perRound + 1

	if warmRef.Histogram.String() != coldRef.Histogram.String() {
		return fmt.Errorf("cache broke determinism: warm %v vs cold %v",
			warmRef.Histogram, coldRef.Histogram)
	}
	// Compile-once invariant: at most one compile across all warm jobs —
	// zero when an earlier experiment in the same run (e.g. -exp all's
	// fig15) already cached this artifact — and every other job a hit.
	if cacheStats.Misses > 1 {
		return fmt.Errorf("warm service compiled %d times for %d identical jobs, want at most 1",
			cacheStats.Misses, warmJobs)
	}
	if cacheStats.Hits < uint64(warmJobs)-1 {
		return fmt.Errorf("warm service recorded %d cache hits for %d identical jobs, want >= %d",
			cacheStats.Hits, warmJobs, warmJobs-1)
	}

	records := []benchRecord{
		{Name: b.Name + "/cold-rebuild-per-job", Jobs: rounds * perRound, Shots: 1,
			JobsPerSec: coldRate, Makespan: warmRef.Makespan, SpeedupVsCold: 1},
		{Name: b.Name + "/warm-artifact-cache", Jobs: rounds * perRound, Shots: 1,
			JobsPerSec: warmRate, Makespan: warmRef.Makespan,
			SpeedupVsCold: warmRate / coldRate,
			CacheHits:     cacheStats.Hits, CacheMisses: cacheStats.Misses},
	}
	for _, r := range records {
		fmt.Printf("%-32s %8.1f jobs/s  %5.2fx vs cold\n", r.Name, r.JobsPerSec, r.SpeedupVsCold)
	}
	fmt.Printf("warm service: %d jobs, %d compile(s), %d cache hit(s) — identical histograms cold vs warm\n",
		warmJobs, cacheStats.Misses, cacheStats.Hits)
	return writeBenchJSON(outDir, "cache", records)
}
