package dhisq

// One benchmark per paper table/figure (the regeneration targets of
// DESIGN.md §4) plus microbenchmarks for the performance-critical
// substrates. Figure 15 benchmarks run size-reduced by default so the whole
// suite stays in benchmark-friendly time; run cmd/dhisq-bench for the
// full-size numbers recorded in EXPERIMENTS.md.

import (
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/exp"
	"dhisq/internal/isa"
	"dhisq/internal/machine"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/stabilizer"
	"dhisq/internal/workloads"
)

func BenchmarkTable1Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table1()
		if !res.AllMatch {
			b.Fatal("resource model diverged from Table 1")
		}
	}
}

func BenchmarkFig11Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11DrawCircle(32, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11T1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11T1(11, 40, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13TwoBoardSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig13SyncWaveforms()
		if err != nil {
			b.Fatal(err)
		}
		if !res.DeltaConstant {
			b.Fatal("sync drifted")
		}
	}
}

func BenchmarkFig14LongRangeCNOT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig14LongRange([]int{4, 16}, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Runtime(b *testing.B) {
	for _, name := range workloads.Fig15Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.Fig15Runtime(exp.Fig15Options{
					ScaleDiv: 8, Seed: 1, Names: []string{name},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Rows[0].Normalized, "normalized-runtime")
			}
		})
	}
}

func BenchmarkFig16Fidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig16Fidelity(0, 0, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].Ratio, "infidelity-reduction")
	}
}

// --- substrate microbenchmarks ---

func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, sim.PriResume, func() {})
		eng.Step()
	}
}

func BenchmarkAssembler(b *testing.B) {
	src := exp.Fig12ControlBoard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerExecution(b *testing.B) {
	// Pure single-core instruction throughput on a classical loop.
	prog := isa.MustAssemble(`
		li $2, 10000
	loop:
		addi $1, $1, 1
		bne $1, $2, loop
		halt
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		m, err := machine.New(machine.DefaultConfig(1), 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = eng
		m.Ctrls[0].Load(prog)
		m.Ctrls[0].Start()
		m.Eng.RunUntil(1_000_000)
	}
}

func BenchmarkStabilizer1000Qubits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := stabilizer.New(1000)
		tb.H(0)
		for q := 0; q < 999; q++ {
			tb.CNOT(q, q+1)
		}
	}
}

func BenchmarkBISPSyncResolution(b *testing.B) {
	// Two controllers ping-ponging nearby syncs: protocol throughput.
	progA := "li $2, 200\nloop:\nsync 1\nwaiti 4\naddi $1,$1,1\nbne $1,$2,loop\nhalt"
	progB := "li $2, 200\nloop:\nsync 0\nwaiti 4\naddi $1,$1,1\nbne $1,$2,loop\nhalt"
	pa, pb := isa.MustAssemble(progA), isa.MustAssemble(progB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(machine.DefaultConfig(2), 2)
		if err != nil {
			b.Fatal(err)
		}
		m.Ctrls[0].Load(pa)
		m.Ctrls[1].Load(pb)
		m.Ctrls[0].Start()
		m.Ctrls[1].Start()
		m.Eng.RunUntil(1_000_000)
		if !m.Ctrls[0].Halted() || !m.Ctrls[1].Halted() {
			b.Fatal("sync ping-pong wedged")
		}
	}
}

func BenchmarkCompileQFT(b *testing.B) {
	bench, err := workloads.BuildScaled("qft_n100", 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig(bench.Qubits)
	cfg.Backend = machine.BackendSeeded
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.NewForCircuit(bench.Circuit, bench.MeshW, bench.MeshH, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Compile(bench.Circuit, bench.Mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactCache measures what the content-addressed cache buys
// on a repeat-circuit compile: "fresh" pays the full lowering every
// iteration, "cached" is a fingerprint hash plus an LRU lookup. The gap
// between the two is the compile cost a repeat submission skips.
func BenchmarkArtifactCache(b *testing.B) {
	bench, err := workloads.BuildScaled("qft_n100", 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig(bench.Qubits)
	cfg.Backend = machine.BackendSeeded
	m, err := machine.NewForCircuit(bench.Circuit, bench.MeshW, bench.MeshH, cfg)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.CompileFresh(bench.Circuit, bench.Mapping, m.CompileOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := m.Compile(bench.Circuit, bench.Mapping); err != nil {
			b.Fatal(err) // warm the shared cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Compile(bench.Circuit, bench.Mapping); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceRepeatJobs is the repeat-circuit serving workload the
// artifact cache and replica pool exist for: every iteration submits the
// same benchmark as a fresh job. "cold" is the pre-serving world — a
// fresh service over an empty private cache per iteration, so each
// submission pays compile + machine build; "warm" keeps one service hot,
// so a job is admission + reset-and-run only.
func BenchmarkServiceRepeatJobs(b *testing.B) {
	bench, err := workloads.BuildScaled("qft_n30", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig(bench.Qubits)
	cfg.Backend = machine.BackendSeeded
	const shotsPerJob = 1

	submit := func(b *testing.B, svc *service.Service) {
		b.Helper()
		id, err := svc.Submit(service.Request{
			Circuit: bench.Circuit, MeshW: bench.MeshW, MeshH: bench.MeshH,
			Mapping: bench.Mapping, Cfg: &cfg, Shots: shotsPerJob, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, ok := svc.Wait(id)
		if !ok || st.State != service.StateDone {
			b.Fatalf("job: ok=%v state=%s err=%q", ok, st.State, st.Err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := service.New(service.Config{Workers: 1, Artifacts: artifact.New(1)})
			submit(b, svc)
			svc.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		svc := service.New(service.Config{Workers: 1})
		defer svc.Close()
		submit(b, svc) // warm the cache and the replica pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, svc)
		}
	})
}

func BenchmarkAblationSyncAdvance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationSyncAdvance([]string{"qft_n30"}, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Saved*100, "%-saved-by-booking-advance")
	}
}
