// Package machine assembles a complete Distributed-HISQ system: the
// simulation engine, the hybrid-topology fabric with its routers, one HISQ
// core per mesh position, and the quantum chip model — then loads compiled
// programs and runs them to completion. It is the top of the simulation
// stack that the experiments and the public API drive.
package machine

import (
	"fmt"

	"dhisq/internal/artifact"
	"dhisq/internal/chip"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/core"
	"dhisq/internal/network"
	"dhisq/internal/quantum"
	"dhisq/internal/sim"
	"dhisq/internal/telf"
)

// BackendKind selects the quantum-state substrate.
type BackendKind int

const (
	// BackendAuto picks StateVec for small circuits, Stabilizer for Clifford
	// circuits, and Seeded otherwise.
	BackendAuto BackendKind = iota
	BackendStateVec
	BackendStabilizer
	BackendSeeded
)

// Config parameterizes a machine.
type Config struct {
	Net         network.Config
	Durations   circuit.Durations
	MeasLatency sim.Time
	Backend     BackendKind
	Seed        int64
	// LogEvents stores individual TELF events (disable for large runs;
	// counters are kept either way).
	LogEvents bool
	// Deadline bounds the run in cycles (0 = 4 billion cycles ≈ 17 s of
	// device time, effectively unbounded for our workloads).
	Deadline sim.Time
	// Placement names the placement policy the compiler's Place pass uses
	// for circuits submitted without an explicit mapping ("" = identity,
	// the legacy byte-identical behavior; see internal/placement). Part of
	// the compile fingerprint via CompileOptions.
	Placement string
	// Schedule names the scheduling policy the compiler's Schedule pass
	// uses ("" = fixed, the legacy byte-identical replay; see the schedule
	// registry in internal/compiler). Part of the compile fingerprint via
	// CompileOptions, exactly like Placement.
	Schedule string
	// Collective, when non-empty, names a network.CollSchedule ("naive",
	// "ring", "halving", "tree", "auto") and switches two things on at
	// once: the compiler's collective-aware feed-forward lowering
	// (compiler.Options.Collective — part of the compile fingerprint), and
	// a post-run digest phase where every controller's owned-bit digest is
	// reduced to controller 0 over the fabric with the named schedule
	// (Result.CollectiveDigest / CollectiveCycles). "" — the default — is
	// byte-identical legacy behavior. The schedule name itself is runtime
	// configuration, not compile input: internal/service keys replica
	// pools on it separately.
	Collective string
	// Chips splits the data qubits across this many chips (0 or 1 = the
	// single-chip legacy machine, byte-identical to before). A multi-chip
	// machine appends one communication qubit per chip after the data
	// qubits, sizes its backends and mesh for the total, and the compiler
	// teleports cross-chip two-qubit gates through the EPR resource
	// (DESIGN.md §13). Part of the compile fingerprint via CompileOptions.
	Chips int
	// EPRLatency is the cycle cost of one inter-chip EPR-pair generation
	// (0 = DefaultEPRLatency when Chips > 1). Part of the compile
	// fingerprint via CompileOptions.
	EPRLatency sim.Time
	// ShotLanes > 1 builds the chip backend as that many independent state
	// lanes: one event-simulation replay drives every lane, so a block of
	// ShotLanes shots costs one Run (see runner.RunBatched). Deliberately
	// not part of the compile fingerprint — lane count changes nothing
	// about the compiled artifact. 0 or 1 = the unbatched single substrate.
	ShotLanes int
	// Artifacts is the compiled-artifact cache Compile/CompileSkeleton
	// consult (nil = the process-wide artifact.Shared).
	// Injecting a private cache isolates cache accounting — the in-process
	// multi-shard cluster tests give each shard its own cache+store pair.
	// Deliberately not part of any fingerprint: which cache serves a
	// compile changes nothing about its output.
	Artifacts *artifact.Cache
}

// artifacts resolves the cache a machine compiles through.
func (cfg Config) artifacts() *artifact.Cache {
	if cfg.Artifacts != nil {
		return cfg.Artifacts
	}
	return artifact.Shared
}

// DefaultEPRLatency is the EPR-pair generation cost in cycles a multi-chip
// machine assumes when Config.EPRLatency is zero: 400 ns on the 4 ns grid —
// an optimistic-but-plausible heralded-entanglement figure, deliberately an
// order of magnitude above the two-qubit gate so remote gates are visibly
// expensive by default.
const DefaultEPRLatency sim.Time = 100

// effectiveEPRLatency resolves the EPR latency a machine built from cfg
// charges (0 for single-chip configs).
func (cfg Config) effectiveEPRLatency() sim.Time {
	switch {
	case cfg.Chips <= 1:
		return 0
	case cfg.EPRLatency > 0:
		return cfg.EPRLatency
	default:
		return DefaultEPRLatency
	}
}

// TotalQubits is the device qubit count a machine built from cfg for n data
// qubits carries: the data qubits plus one communication qubit per chip.
func (cfg Config) TotalQubits(n int) int {
	if cfg.Chips > 1 {
		return n + cfg.Chips
	}
	return n
}

// Mesh returns the controller mesh a machine built from cfg runs n data
// qubits on: cfg.Net's mesh, grown to the near-square mesh for
// TotalQubits(n) when a multi-chip config's communication qubits do not
// fit. Admission (internal/service), the CLIs and New all size through
// it, so the fingerprint a request is admitted under matches the machine
// it runs on.
func (cfg Config) Mesh(n int) (w, h int) {
	w, h = cfg.Net.MeshW, cfg.Net.MeshH
	if total := cfg.TotalQubits(n); cfg.Chips > 1 && w*h < total {
		w, h = network.NearSquareMesh(total)
	}
	return w, h
}

// DefaultConfig sizes a machine for n qubits with the paper's constants.
func DefaultConfig(n int) Config {
	d := circuit.PaperDurations()
	return Config{
		Net:         network.DefaultConfig(n),
		Durations:   d,
		MeasLatency: d.Measure + 5,
		Backend:     BackendAuto,
		Seed:        1,
		LogEvents:   false,
	}
}

// Machine is an assembled system.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Topo  *network.Topology
	Fab   *network.Fabric
	Ctrls []*core.Controller
	Chip  *chip.Model
	Log   *telf.Log

	numQubits int
	loaded    *compiler.Compiled
}

// New builds the fabric and controllers for the given qubit count.
//
// BackendAuto resolves to BackendSeeded here: the Auto rules need the
// circuit (qubit count for StateVec, the Clifford check for Stabilizer),
// which New does not have. Use NewForCircuit to get circuit-aware backend
// selection; direct callers of New get the timing-only seeded substrate
// unless they pass a concrete kind.
func New(cfg Config, numQubits int) (*Machine, error) {
	total := cfg.TotalQubits(numQubits)
	if cfg.Chips > 1 && cfg.Chips > numQubits {
		return nil, fmt.Errorf("machine: %d chips exceed %d qubits (each chip needs at least one data qubit)", cfg.Chips, numQubits)
	}
	// Backstop for callers that sized the mesh for the data qubits only;
	// the entry points resize identically up front.
	cfg.Net.MeshW, cfg.Net.MeshH = cfg.Mesh(numQubits)
	topo, err := network.NewTopology(cfg.Net)
	if err != nil {
		return nil, err
	}
	if topo.N < 1 {
		return nil, fmt.Errorf("machine: empty mesh")
	}
	if cfg.Backend == BackendAuto {
		cfg.Backend = BackendSeeded
	}
	// Every lane of a state-vector machine holds a dense vector over all
	// total qubits (data plus comm); refuse sizes the simulator cannot
	// hold rather than let chip.NewStateVec panic the caller.
	if cfg.Backend == BackendStateVec && (total < 1 || total > quantum.MaxQubits) {
		return nil, fmt.Errorf("machine: state-vector backend supports 1..%d qubits, device has %d", quantum.MaxQubits, total)
	}
	eng := sim.NewEngine()
	log := telf.NewLog()
	log.SetEnabled(cfg.LogEvents)
	fab := network.NewFabric(eng, topo, log)

	mkBackend := func(int) chip.Backend {
		var b chip.Backend
		switch cfg.Backend {
		case BackendStateVec:
			b = chip.NewStateVec(total, cfg.Seed)
		case BackendStabilizer:
			b = chip.NewStabilizer(total, cfg.Seed)
		default:
			b = chip.NewSeeded(cfg.Seed)
		}
		if cfg.Chips > 1 {
			if ca, ok := b.(chip.CommAware); ok {
				ca.SetCommFrom(numQubits)
			}
		}
		return b
	}
	var backend chip.Backend
	if cfg.ShotLanes > 1 {
		backend = chip.NewLanes(mkBackend, cfg.ShotLanes)
	} else {
		backend = mkBackend(0)
	}
	chipModel := chip.New(eng, backend, cfg.Durations, cfg.MeasLatency)
	chipModel.EPRLatency = cfg.effectiveEPRLatency()

	m := &Machine{
		Cfg: cfg, Eng: eng, Topo: topo, Fab: fab,
		Chip: chipModel, Log: log, numQubits: numQubits,
	}
	m.Ctrls = make([]*core.Controller, topo.N)
	for i := range m.Ctrls {
		cc := core.Config{ID: i, Ports: 4, QueueDepth: 1024, MemSize: 64 << 10, BurstBudget: 4096}
		m.Ctrls[i] = core.NewController(eng, cc, fab, chipModel, log)
		fab.Attach(i, m.Ctrls[i])
	}
	chipModel.SetDelivery(func(node, ch int, val uint32, at sim.Time) {
		t := at
		if now := eng.Now(); t < now {
			t = now
		}
		ctrl := m.Ctrls[node]
		eng.At(t, sim.PriDeliver, func() { ctrl.PushResult(ch, val, at) })
	})
	return m, nil
}

// ResolveBackend applies the BackendAuto rules for a circuit: dense
// state vector while it fits (≤14 qubits), stabilizer tableau for
// Clifford circuits, seeded outcome source otherwise. Non-Auto kinds
// pass through unchanged.
func ResolveBackend(c *circuit.Circuit, k BackendKind) BackendKind {
	return resolveBackendFor(c, k, c.NumQubits)
}

// resolveBackendFor is ResolveBackend with the device total (data + comm
// qubits) as the state-size criterion: a multi-chip expansion must not push
// a dense state vector past what fits.
func resolveBackendFor(c *circuit.Circuit, k BackendKind, total int) BackendKind {
	if k != BackendAuto {
		return k
	}
	switch {
	case total <= 14:
		return BackendStateVec
	case c.IsClifford():
		return BackendStabilizer
	default:
		return BackendSeeded
	}
}

// NewForCircuit builds a machine sized for a circuit with an explicit mesh
// shape, picking a backend per BackendAuto rules.
func NewForCircuit(c *circuit.Circuit, meshW, meshH int, cfg Config) (*Machine, error) {
	cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
	cfg.Backend = resolveBackendFor(c, cfg.Backend, cfg.TotalQubits(c.NumQubits))
	return New(cfg, c.NumQubits)
}

// CompileOptions derives compiler options consistent with this machine.
func (m *Machine) CompileOptions() compiler.Options {
	return compileOptions(m.Cfg, m.Topo)
}

// CompileOptionsFor derives the compiler options a machine built from cfg
// would use, constructing only the topology — not the fabric, controllers
// or chip. internal/service fingerprints submissions with it, so job
// admission never has to build a machine.
func CompileOptionsFor(cfg Config) (compiler.Options, error) {
	topo, err := network.NewTopology(cfg.Net)
	if err != nil {
		return compiler.Options{}, err
	}
	return compileOptions(cfg, topo), nil
}

// compileOptions is the one derivation of compiler options from a machine
// config and its topology: every compile policy a job runs with is chosen
// on the Config and reaches the compiler only through here.
func compileOptions(cfg Config, topo *network.Topology) compiler.Options {
	opt := compiler.DefaultOptions(topo.Root, topo.N)
	opt.Durations = cfg.Durations
	opt.MeasLatency = cfg.MeasLatency
	opt.Placement = cfg.Placement
	opt.Schedule = cfg.Schedule
	opt.Collective = cfg.Collective != ""
	if cfg.Chips > 1 {
		// Chips <= 1 stays zero so a Chips=1 config fingerprints — and
		// compiles — identically to the legacy single-chip machine.
		opt.Chips = cfg.Chips
		opt.EPRLatency = cfg.effectiveEPRLatency()
	}
	return opt
}

// KeyFor is the shared-cache fingerprint Compile would use for a machine
// built from cfg.
func KeyFor(c *circuit.Circuit, mapping []int, cfg Config) (artifact.Fingerprint, error) {
	opt, err := CompileOptionsFor(cfg)
	if err != nil {
		return artifact.Fingerprint{}, err
	}
	return artifact.Key(c, mapping, cfg.Net, opt), nil
}

// StructuralKeyFor is the bind-invariant fingerprint CompileSkeleton would
// use for a machine built from cfg: every binding of one parameterized
// circuit shares it, so job admission can batch a whole sweep onto one
// compiled skeleton without building a machine.
func StructuralKeyFor(c *circuit.Circuit, mapping []int, cfg Config) (artifact.Fingerprint, error) {
	opt, err := CompileOptionsFor(cfg)
	if err != nil {
		return artifact.Fingerprint{}, err
	}
	return artifact.StructuralKey(c, mapping, cfg.Net, opt), nil
}

// Compile lowers a circuit for this machine, consulting the shared
// artifact cache: a repeat submission of the same (circuit, mapping,
// topology, options) tuple returns the cached per-controller binaries
// without recompiling. The returned artifact is shared — treat it as
// immutable, the same contract Load and the runner replicas already obey.
func (m *Machine) Compile(c *circuit.Circuit, mapping []int) (*compiler.Compiled, error) {
	if err := rejectUnbound(c); err != nil {
		return nil, err
	}
	opt := m.CompileOptions()
	fp := artifact.Key(c, mapping, m.Cfg.Net, opt)
	cp, _, err := m.Cfg.artifacts().GetOrCompile(fp, func() (*compiler.Compiled, error) {
		return m.compile(c, mapping, opt)
	})
	return cp, err
}

// rejectUnbound keeps skeleton circuits out of the run-oriented compile
// paths: a table Param defaulting to 0 would silently execute as an
// angle-0 rotation. CompileSkeleton is the deliberate entry point.
func rejectUnbound(c *circuit.Circuit) error {
	if ub := c.UnboundParams(); len(ub) > 0 {
		return fmt.Errorf("machine: circuit has unbound parameters %v (Bind them, or compile via CompileSkeleton)", ub)
	}
	return nil
}

// CompileSkeleton lowers a parameterized circuit once under its
// bind-invariant structural fingerprint: the artifact is cached with the
// symbolic params elided from the key, so every binding of the skeleton —
// a whole angle sweep — shares one compilation. Patch the returned
// (shared, immutable) artifact per point with Compiled.BindParams; the
// result is byte-identical to a full compile of the bound circuit.
// Concrete circuits are legal too (the structural key then fixes every
// angle), so callers need not special-case parameter-free submissions.
func (m *Machine) CompileSkeleton(c *circuit.Circuit, mapping []int) (*compiler.Compiled, error) {
	opt := m.CompileOptions()
	fp := artifact.StructuralKey(c, mapping, m.Cfg.Net, opt)
	cp, _, err := m.Cfg.artifacts().GetOrCompile(fp, func() (*compiler.Compiled, error) {
		return m.compile(c, mapping, opt)
	})
	return cp, err
}

// compile runs the standard pass pipeline with this machine's topology —
// the entry point that lets the Place pass resolve non-identity placement
// policies (they need mesh distances, which the Windows interface hides).
func (m *Machine) compile(c *circuit.Circuit, mapping []int, opt compiler.Options) (*compiler.Compiled, error) {
	return compiler.NewPipeline().Run(&compiler.State{
		Circuit: c, Mapping: mapping, Topo: m.Topo, Windows: m.Fab, Opt: opt,
	})
}

// CompileFresh lowers a circuit without consulting the artifact cache.
// It exists for the paths whose meaning depends on paying the compile
// every time — runner.RunRebuild's legacy baseline and the fresh side of
// the compile benchmarks.
func (m *Machine) CompileFresh(c *circuit.Circuit, mapping []int, opt compiler.Options) (*compiler.Compiled, error) {
	if err := rejectUnbound(c); err != nil {
		return nil, err
	}
	return m.compile(c, mapping, opt)
}

// Load installs compiled programs and tables on every controller.
func (m *Machine) Load(cp *compiler.Compiled) error {
	if len(cp.Programs) != len(m.Ctrls) {
		return fmt.Errorf("machine: %d programs for %d controllers", len(cp.Programs), len(m.Ctrls))
	}
	for i, p := range cp.Programs {
		if cp.MemBytes > m.Ctrls[i].Cfg.MemSize {
			m.Ctrls[i] = core.NewController(m.Eng, core.Config{
				ID: i, Ports: 4, QueueDepth: 1024,
				MemSize: cp.MemBytes, BurstBudget: 4096,
			}, m.Fab, m.Chip, m.Log)
			m.Fab.Attach(i, m.Ctrls[i])
		}
		m.Ctrls[i].Load(p)
		m.Chip.SetTable(i, cp.Tables[i])
	}
	m.loaded = cp
	return nil
}

// Loaded returns the artifact installed by the last Load (nil before any).
func (m *Machine) Loaded() *compiler.Compiled { return m.loaded }

// Reset rewinds a loaded machine to its just-loaded state so the same
// compiled program can run again without rebuilding anything: the engine
// drains and its clock rewinds, every controller clears back to pc 0 with
// its program in place, the routers drop pending bookings, the TELF log
// empties, and the chip resets its quantum state with the given seed. No
// component is reallocated — this is the cheap per-shot path that
// RunShots and internal/runner are built on.
func (m *Machine) Reset(seed int64) {
	m.Eng.Reset()
	m.Log.Reset()
	m.Fab.Reset()
	m.Chip.Reset(seed)
	for _, c := range m.Ctrls {
		c.Reset()
	}
}

// Lanes returns the number of shot lanes this machine's backend carries
// (1 when unbatched).
func (m *Machine) Lanes() int {
	if m.Cfg.ShotLanes > 1 {
		return m.Cfg.ShotLanes
	}
	return 1
}

// ResetBatch is the batched-block counterpart of Reset: the engine,
// routers, log and controllers rewind identically, but lane l of the chip
// backend reseeds with seeds[l] so each lane replays the loaded program as
// an independent shot. Requires a machine built with Cfg.ShotLanes > 1.
func (m *Machine) ResetBatch(seeds []int64) error {
	m.Eng.Reset()
	m.Log.Reset()
	m.Fab.Reset()
	if err := m.Chip.ResetBatch(seeds); err != nil {
		return err
	}
	for _, c := range m.Ctrls {
		c.Reset()
	}
	return nil
}

// BatchMeas exposes the per-lane measurement records of the last batched
// run, in commit order (empty for unbatched machines).
func (m *Machine) BatchMeas() []chip.BatchMeas { return m.Chip.BatchMeas }

// DeriveSeed returns the backend seed for shot number `shot` of a run whose
// base seed is `base`. Shot 0 uses the base seed itself, so a one-shot run
// is bit-identical to the legacy build-run path; later shots draw from a
// SplitMix64 stream over (base, shot), so shot k is reproducible in
// isolation without replaying shots 0..k-1.
func DeriveSeed(base int64, shot int) int64 {
	if shot == 0 {
		return base
	}
	x := uint64(base) + uint64(shot)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Result summarizes a run.
type Result struct {
	Makespan      sim.Time // latest controller end time (cycles)
	Halted        bool     // every controller reached halt
	Violations    uint64   // TCU timing violations across controllers
	Misalignments int      // two-qubit co-commitment failures (chip)
	Overlaps      int      // per-qubit occupancy overlaps (chip)
	Inversions    int      // out-of-timestamp-order backend applications (chip)
	SyncStall     sim.Time // total cycles spent paused at sync gates
	RecvStall     sim.Time
	// NetStall is the total queueing delay of controller-originated
	// traffic at busy links and router ports (0 unless the fabric's
	// contention model is enabled).
	NetStall     sim.Time
	Instructions uint64
	Commits      uint64
	Gates        uint64
	Measurements uint64
	// EPRPairs counts inter-chip EPR-pair generations (0 on single-chip
	// machines) — the remote-gate resource consumption of the run.
	EPRPairs uint64
	// Net snapshots the fabric's congestion counters for this run.
	Net network.CongestionStats
	// RouterUtilization is the busiest single router port's occupancy
	// divided by the makespan (0 when contention is disabled or the run
	// was empty).
	RouterUtilization float64
	// CollectiveDigest and CollectiveCycles report the post-run digest
	// reduction (Config.Collective): every controller contributes a digest
	// word of the classical bits it owns, reduced to controller 0 over the
	// fabric with the configured schedule and self-checked against the
	// host-side fold. Both zero when the phase is off or the run did not
	// halt.
	CollectiveDigest uint32
	CollectiveCycles sim.Time
}

// Run starts every controller and drives the engine until all halt (or the
// deadline passes). It returns the aggregate result and a descriptive error
// if the system wedged.
func (m *Machine) Run() (Result, error) {
	for _, c := range m.Ctrls {
		c.Start()
	}
	deadline := m.Cfg.Deadline
	if deadline <= 0 {
		deadline = 4_000_000_000
	}
	m.Eng.RunUntil(deadline)

	res := Result{Halted: true}
	for _, c := range m.Ctrls {
		if err := c.Err(); err != nil {
			return res, err
		}
		if !c.Halted() {
			res.Halted = false
		}
		if t := c.EndTime(); t > res.Makespan {
			res.Makespan = t
		}
		st := c.Stats
		res.Violations += st.Violations
		res.SyncStall += st.StallSync
		res.RecvStall += st.StallRecv
		res.NetStall += st.StallNet
		res.Instructions += st.Instrs
		res.Commits += st.Commits
	}
	if m.Cfg.Collective != "" && res.Halted {
		// The engine is drained (RunUntil advanced it to the deadline), so
		// the collective layer can step it further without foreign events
		// interleaving; Reset rewinds the clock for the next shot as usual.
		if err := m.reduceDigest(&res); err != nil {
			return res, err
		}
	}
	res.Net = m.Fab.Congestion()
	if res.Net.Enabled && res.Makespan > 0 {
		res.RouterUtilization = float64(res.Net.PortBusiest) / float64(res.Makespan)
	}
	res.Misalignments = len(m.Chip.Violations)
	res.Overlaps = m.Chip.Overlaps
	res.Inversions = m.Chip.OrderInversions
	res.Gates = m.Chip.Gates
	res.Measurements = m.Chip.Measurements
	res.EPRPairs = m.Chip.EPRPairs
	if len(m.Chip.Errs) > 0 {
		return res, m.Chip.Errs[0]
	}
	if !res.Halted {
		for _, c := range m.Ctrls {
			if !c.Halted() {
				return res, fmt.Errorf("machine: controller %d wedged (%s at pc=%d)", c.Cfg.ID, c.Blocked(), c.PC())
			}
		}
	}
	return res, nil
}

// reduceDigest is the post-run collective phase of Config.Collective:
// each controller contributes one digest word folding the classical bits
// it owns (position-salted so distinct outcomes yield distinct digests),
// and the fabric reduces the words to controller 0 with the configured
// schedule — real timestamped messages through the same links, ports and
// congestion counters as program traffic. The reduced value is
// self-checked against a host-side fold; a mismatch is a hard error, the
// same role the naive schedule plays as the collective layer's oracle.
func (m *Machine) reduceDigest(res *Result) error {
	sched, err := network.ParseCollSchedule(m.Cfg.Collective)
	if err != nil {
		return err
	}
	if m.loaded == nil {
		return nil
	}
	inputs := make([][]uint32, m.Topo.N)
	for i := range inputs {
		inputs[i] = []uint32{0}
	}
	for b, owner := range m.loaded.BitOwner {
		if owner < 0 {
			continue
		}
		mem := m.Ctrls[owner].ReadMem(4*b, 4)
		if mem == nil {
			return fmt.Errorf("machine: collective digest: bit %d address out of range", b)
		}
		inputs[owner][0] += (uint32(mem[0]) & 1) << uint(b%24)
	}
	parts := make([]int, m.Topo.N)
	for i := range parts {
		parts[i] = i
	}
	spec := network.CollSpec{
		Kind: network.CollReduce, Schedule: sched,
		Parts: parts, Root: 0, Width: 1, Op: network.ReduceSum,
	}
	cres, err := network.RunCollective(m.Fab, spec, inputs, m.Eng.Now())
	if err != nil {
		return fmt.Errorf("machine: collective digest: %w", err)
	}
	var want uint32
	for _, in := range inputs {
		want += in[0]
	}
	if got := cres.Values[0][0]; got != want {
		return fmt.Errorf("machine: collective digest mismatch: fabric %#x, host fold %#x", cres.Values[0][0], want)
	}
	res.CollectiveDigest = want
	res.CollectiveCycles = cres.Makespan()
	return nil
}

// RunCircuit is the one-call path: compile, load, run.
func RunCircuit(c *circuit.Circuit, meshW, meshH int, mapping []int, cfg Config) (Result, *Machine, error) {
	m, err := NewForCircuit(c, meshW, meshH, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	cp, err := m.Compile(c, mapping)
	if err != nil {
		return Result{}, nil, err
	}
	if err := m.Load(cp); err != nil {
		return Result{}, nil, err
	}
	res, err := m.Run()
	return res, m, err
}

// RunShots executes the loaded program n times on this machine — reset,
// run, repeat — deriving the shot-k backend seed from Cfg.Seed via
// DeriveSeed. The machine is reset before every shot including the first,
// so RunShots(n) is independent of whatever ran before it; shot results
// are returned in shot order. On error the shots completed so far are
// returned alongside it.
func (m *Machine) RunShots(n int) ([]Result, error) {
	if m.loaded == nil {
		return nil, fmt.Errorf("machine: RunShots before Load")
	}
	out := make([]Result, 0, n)
	for k := 0; k < n; k++ {
		m.Reset(DeriveSeed(m.Cfg.Seed, k))
		res, err := m.Run()
		if err != nil {
			return out, fmt.Errorf("machine: shot %d: %w", k, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ReadBit reads classical bit b from its owner's data memory after a run.
func (m *Machine) ReadBit(cp *compiler.Compiled, b int) (int, error) {
	owner := cp.BitOwner[b]
	if owner < 0 {
		return 0, fmt.Errorf("machine: bit %d was never measured", b)
	}
	mem := m.Ctrls[owner].ReadMem(4*b, 4)
	if mem == nil {
		return 0, fmt.Errorf("machine: bit %d address out of range", b)
	}
	return int(mem[0]) & 1, nil
}

// ReadBits reads every public classical bit of the loaded program after a
// run. Bits that were never measured (owner < 0) read as 0. On multi-chip
// artifacts the teleport-correction bits after Compiled.PublicBits are
// machine-internal and excluded, so the result has the same shape as a
// single-chip run of the pre-expansion circuit.
func (m *Machine) ReadBits() ([]int, error) {
	if m.loaded == nil {
		return nil, fmt.Errorf("machine: ReadBits before Load")
	}
	n := len(m.loaded.BitOwner)
	if pb := m.loaded.PublicBits; pb > 0 && pb < n {
		n = pb
	}
	bits := make([]int, n)
	for b, owner := range m.loaded.BitOwner[:n] {
		if owner < 0 {
			continue
		}
		mem := m.Ctrls[owner].ReadMem(4*b, 4)
		if mem == nil {
			return nil, fmt.Errorf("machine: bit %d address out of range", b)
		}
		bits[b] = int(mem[0]) & 1
	}
	return bits, nil
}
