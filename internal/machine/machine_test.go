package machine

import (
	"strings"
	"testing"

	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/quantum"
	"dhisq/internal/workloads"
)

// runFull compiles and runs a circuit on an identity-mapped meshW×meshH
// machine, failing the test on any wedge, chip error, timing violation,
// co-commitment misalignment, or qubit-occupancy overlap.
func runFull(t *testing.T, c *circuit.Circuit, meshW, meshH int, mapping []int, backend BackendKind, seed int64) (Result, *Machine, []int) {
	t.Helper()
	cfg := DefaultConfig(c.NumQubits)
	cfg.Backend = backend
	cfg.Seed = seed
	m, err := NewForCircuit(c, meshW, meshH, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := m.Compile(c, mapping)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(cp); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("machine did not halt")
	}
	if res.Violations != 0 {
		t.Fatalf("timing violations: %d", res.Violations)
	}
	if res.Misalignments != 0 {
		t.Fatalf("two-qubit co-commitment misalignments: %d (%v)", res.Misalignments, m.Chip.Violations)
	}
	if res.Overlaps != 0 {
		t.Fatalf("qubit occupancy overlaps: %d", res.Overlaps)
	}
	if res.Inversions != 0 {
		t.Fatalf("out-of-order backend applications: %d", res.Inversions)
	}
	if m.Chip.PendingHalves() != 0 {
		t.Fatalf("unmatched two-qubit halves: %d", m.Chip.PendingHalves())
	}
	bits := make([]int, c.NumBits)
	for b := range bits {
		v, err := m.ReadBit(cp, b)
		if err != nil {
			t.Fatalf("bit %d: %v", b, err)
		}
		bits[b] = v
	}
	return res, m, bits
}

func TestGHZThroughFullStack(t *testing.T) {
	// 3x3 mesh, 9 qubits, identity mapping. GHZ exercises 1q gates, chained
	// 2q gates with nearby sync, and measurement readout into memory.
	for seed := int64(1); seed <= 5; seed++ {
		c := workloads.GHZ(9)
		res, _, bits := runFull(t, c, 3, 3, nil, BackendStateVec, seed)
		for i := 1; i < 9; i++ {
			if bits[i] != bits[0] {
				t.Fatalf("seed %d: GHZ broken: %v", seed, bits)
			}
		}
		if res.Gates == 0 || res.Measurements != 9 {
			t.Fatalf("gates=%d meas=%d", res.Gates, res.Measurements)
		}
	}
}

func TestBVThroughFullStack(t *testing.T) {
	// Deterministic algorithm: the full stack must recover the secret.
	secret := func(i int) bool { return i%2 == 1 }
	c := workloads.BV(6, secret)
	_, _, bits := runFull(t, c, 3, 2, nil, BackendStateVec, 3)
	for i := 0; i < 5; i++ {
		want := 0
		if secret(i) {
			want = 1
		}
		if bits[i] != want {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want)
		}
	}
}

func TestAdderThroughFullStack(t *testing.T) {
	// 2-bit Cuccaro adder: 2+3=5, through real T gates (statevec backend).
	c := workloads.CuccaroAdder(2, 2, 3)
	_, _, bits := runFull(t, c, 3, 2, nil, BackendStateVec, 4)
	got := bits[0] | bits[1]<<1 | bits[2]<<2
	if got != 5 {
		t.Fatalf("adder through stack: 2+3 = %d", got)
	}
}

func TestDynamicLongRangeCNOTThroughFullStack(t *testing.T) {
	// The paper's Fig. 14 flow end to end: X on the control, long-range CNOT
	// over a dual-rail chain with measurements and parity feed-forward
	// (send/recv across controllers), then readout. Target must flip.
	logical := circuit.New(4)
	logical.X(0)
	logical.CNOT(0, 3)
	logical.MeasureInto(0, 0)
	logical.MeasureInto(3, 1)
	phys, err := circuit.DualRailEmbedding{}.Embed(logical)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		res, _, bits := runFull(t, phys, 4, 2, nil, BackendStateVec, seed)
		if bits[0] != 1 || bits[1] != 1 {
			t.Fatalf("seed %d: long-range CNOT wrong: %v", seed, bits[:2])
		}
		if res.RecvStall == 0 {
			t.Fatal("expected recv stalls from feed-forward messages")
		}
	}
}

func TestBarrierRegionSyncThroughFullStack(t *testing.T) {
	c := circuit.New(4)
	c.H(0).H(1).H(2).H(3)
	c.BarrierAll()
	c.CNOT(0, 1)
	c.CNOT(2, 3)
	c.BarrierAll()
	for q := 0; q < 4; q++ {
		c.MeasureInto(q, q)
	}
	res, m, _ := runFull(t, c, 2, 2, nil, BackendStateVec, 9)
	if res.Makespan == 0 {
		t.Fatal("zero makespan")
	}
	// Every router round must have completed (no half-collected bookings).
	for r := 0; r < m.Topo.NumRouters; r++ {
		router := m.Fab.Router(m.Topo.N + r)
		_ = router
	}
}

func TestStabilizerBackendLargeGHZ(t *testing.T) {
	// 64 qubits on an 8x8 mesh with the tableau backend.
	c := workloads.GHZ(64)
	_, _, bits := runFull(t, c, 8, 8, nil, BackendStabilizer, 11)
	for i := 1; i < 64; i++ {
		if bits[i] != bits[0] {
			t.Fatalf("large GHZ broken at %d", i)
		}
	}
}

// TestStateVecRejectsOversizedDevice: a dense state vector the simulator
// cannot hold is an error from New, not a panic — counting the comm qubits
// of a multi-chip device and regardless of the lane count.
func TestStateVecRejectsOversizedDevice(t *testing.T) {
	cases := map[string]struct {
		c     *circuit.Circuit
		chips int
		lanes int
	}{
		"data-qubits": {c: workloads.GHZ(40)},
		"comm-qubits": {c: workloads.GHZ(quantum.MaxQubits - 1), chips: 2},
		"lanes":       {c: workloads.GHZ(quantum.MaxQubits + 1), lanes: 4},
	}
	for name, tc := range cases {
		cfg := DefaultConfig(tc.c.NumQubits)
		cfg.Backend = BackendStateVec
		cfg.Chips = tc.chips
		cfg.ShotLanes = tc.lanes
		w, h := cfg.Mesh(tc.c.NumQubits)
		m, err := NewForCircuit(tc.c, w, h, cfg)
		if err == nil || m != nil {
			t.Fatalf("%s: %d-qubit state-vector device accepted", name, cfg.TotalQubits(tc.c.NumQubits))
		}
		if !strings.Contains(err.Error(), "state-vector") {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
	}
}

func TestSeededBackendDeterminism(t *testing.T) {
	// Two runs with the same seed must produce identical makespans and bit
	// records — the property the Fig. 15 BISP-vs-baseline comparison needs.
	build := func() (Result, []int) {
		b, err := workloads.BuildScaled("qft_n30", 2)
		if err != nil {
			t.Fatal(err)
		}
		res, _, bits := runFull(t, b.Circuit, b.MeshW, b.MeshH, b.Mapping, BackendSeeded, 42)
		return res, bits
	}
	r1, b1 := build()
	r2, b2 := build()
	if r1.Makespan != r2.Makespan {
		t.Fatalf("nondeterministic makespan: %d vs %d", r1.Makespan, r2.Makespan)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("bit %d differs across identical runs", i)
		}
	}
}

func TestScaledBenchmarksRunCleanly(t *testing.T) {
	// Every Fig. 15 benchmark (scaled down 16x) must run through the full
	// stack without violations, misalignments, or wedges.
	for _, name := range workloads.Fig15Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := workloads.BuildScaled(name, 16)
			if err != nil {
				t.Fatal(err)
			}
			backend := BackendSeeded
			if b.Circuit.IsClifford() {
				backend = BackendStabilizer
			}
			res, _, _ := runFull(t, b.Circuit, b.MeshW, b.MeshH, b.Mapping, backend, 7)
			if res.Makespan == 0 {
				t.Fatal("zero makespan")
			}
		})
	}
}

func TestCoCommitmentInvariantUnderFabricLatencies(t *testing.T) {
	// Stress the invariant with several different link latency settings:
	// two-qubit halves must land on the same cycle regardless.
	for _, lat := range []int64{1, 2, 5, 9} {
		c := workloads.GHZ(6)
		cfg := DefaultConfig(6)
		cfg.Backend = BackendStateVec
		cfg.Net.MeshW, cfg.Net.MeshH = 3, 2
		cfg.Net.NeighborLatency = lat
		m, err := New(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := m.Compile(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(cp); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Misalignments != 0 {
			t.Fatalf("latency %d: %d misalignments", lat, res.Misalignments)
		}
		if res.Violations != 0 {
			t.Fatalf("latency %d: %d violations", lat, res.Violations)
		}
	}
}

func TestChipRejectsBadCodeword(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Net.MeshW, cfg.Net.MeshH = 2, 1
	m, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Chip.SetTable(0, []chip.TableEntry{})
	m.Chip.Commit(0, chip.PortXY, 5, 10)
	if len(m.Chip.Errs) == 0 {
		t.Fatal("expected table-range error")
	}
}

// TestCompileSkeletonStructuralSharing: every binding of a parameterized
// circuit shares the skeleton's structural fingerprint and its single
// cached compile, while the run-oriented compile paths reject unbound
// skeletons outright.
func TestCompileSkeletonStructuralSharing(t *testing.T) {
	c := circuit.New(2)
	c.RZSym(0, "a").RZSym(1, "b")
	c.MeasureInto(0, 0)
	c.MeasureInto(1, 1)
	cfg := DefaultConfig(2)
	cfg.Net.MeshW, cfg.Net.MeshH = 2, 1

	skelFP, err := StructuralKeyFor(c, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := c.Bind(map[string]float64{"a": 0.5, "b": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := StructuralKeyFor(b1, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != skelFP {
		t.Fatal("binding changed the structural fingerprint")
	}
	full, err := KeyFor(b1, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full == skelFP {
		t.Fatal("full key collides with structural key")
	}

	m, err := NewForCircuit(c, 2, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compile(c, nil); err == nil {
		t.Fatal("Compile accepted an unbound skeleton")
	}
	if _, err := m.CompileFresh(c, nil, m.CompileOptions()); err == nil {
		t.Fatal("CompileFresh accepted an unbound skeleton")
	}
	skel, err := m.CompileSkeleton(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skel.ParamSlots) != 2 {
		t.Fatalf("skeleton recorded %d slots, want 2", len(skel.ParamSlots))
	}
	// A second skeleton compile is a cache hit (same artifact pointer).
	again, err := m.CompileSkeleton(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if skel != again {
		t.Fatal("skeleton recompiled despite the structural cache entry")
	}
	// The bound artifact runs and honors the bound angles end to end.
	bound, err := skel.BindParams(map[string]float64{"a": 0.5, "b": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bound); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
