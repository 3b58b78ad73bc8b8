// Package runner is the shot-execution subsystem: it compiles a circuit
// once and runs it many times, fanning the shots out across a pool of
// independent machine replicas.
//
// The paper's evaluation is dominated by repetition — calibration sweeps
// run points × shots executions (Fig. 11), Fig. 16 sweeps repetitions ×
// T1 settings, Fig. 15 runs whole benchmark suites — and the legacy path
// rebuilt the topology, fabric, controllers and chip and recompiled the
// circuit for every single execution. The runner instead exploits the
// machine-wide Reset path: one compile produces an immutable artifact
// (programs, codeword tables, bit owners) that W replicas share read-only,
// and each shot is a cheap reset+run on one replica. Compilation itself
// goes through the shared content-addressed cache (internal/artifact), so
// a repeat Run of a previously seen circuit skips even the one compile.
//
// Determinism is a hard invariant, not a best effort: shot k's backend
// seed is machine.DeriveSeed(base, k) regardless of which worker executes
// it, and merged results are ordered by shot index, not completion order.
// Run with W workers is therefore byte-identical to W=1 and to the legacy
// rebuild-per-shot path (RunRebuild), which the package tests verify
// shot-for-shot.
package runner

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/sim"
)

// Spec describes a repeatable execution: the circuit, its placement on the
// mesh, and the machine configuration. Cfg.Seed is the base seed of the
// shot stream, and Cfg is the only place compile policies are chosen
// (Cfg.Placement, Cfg.Schedule, Cfg.Chips, ...): every replica derives its
// compiler options from it.
type Spec struct {
	Circuit *circuit.Circuit
	MeshW   int
	MeshH   int
	Mapping []int // qubit -> controller; nil = identity
	Cfg     machine.Config
}

// Shot is the outcome of one repetition.
type Shot struct {
	Index  int
	Seed   int64 // backend seed this shot ran with
	Result machine.Result
	Bits   []int // classical bits in bit order (empty circuit = empty)
}

// ShotSet is the merged outcome of a multi-shot run, ordered by shot index.
type ShotSet struct {
	Shots   []Shot
	NumBits int
}

// Key renders a shot's classical bits as a bitstring, bit 0 leftmost.
func (s Shot) Key() string {
	var b strings.Builder
	for _, bit := range s.Bits {
		b.WriteByte('0' + byte(bit&1))
	}
	return b.String()
}

// Histogram counts shots per classical-bitstring outcome.
type Histogram map[string]int

// Histogram aggregates the shot outcomes.
func (s *ShotSet) Histogram() Histogram {
	h := Histogram{}
	for _, shot := range s.Shots {
		h[shot.Key()]++
	}
	return h
}

// Makespans returns the per-shot makespans in shot order.
func (s *ShotSet) Makespans() []sim.Time {
	out := make([]sim.Time, len(s.Shots))
	for i, shot := range s.Shots {
		out[i] = shot.Result.Makespan
	}
	return out
}

// Keys returns the outcomes in lexicographic order (deterministic render).
func (h Histogram) Keys() []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the histogram one "bitstring count" line per outcome.
func (h Histogram) String() string {
	var b strings.Builder
	for _, k := range h.Keys() {
		fmt.Fprintf(&b, "%s %d\n", k, h[k])
	}
	return b.String()
}

// Build constructs one loaded machine replica for the spec, compiling
// through the shared artifact cache when cp is nil (the compiled artifact
// is returned either way). internal/service uses it to grow per-artifact
// replica pools that outlive a single Run call.
func Build(spec Spec, cp *compiler.Compiled) (*machine.Machine, *compiler.Compiled, error) {
	m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, spec.Cfg)
	if err != nil {
		return nil, nil, err
	}
	if cp == nil {
		if cp, err = m.Compile(spec.Circuit, spec.Mapping); err != nil {
			return nil, nil, err
		}
	}
	if err := m.Load(cp); err != nil {
		return nil, nil, err
	}
	return m, cp, nil
}

// runShot executes shot k on an already-loaded replica and reads it out.
func runShot(m *machine.Machine, base int64, k int) (Shot, error) {
	seed := machine.DeriveSeed(base, k)
	m.Reset(seed)
	res, err := m.Run()
	if err != nil {
		return Shot{}, fmt.Errorf("runner: shot %d: %w", k, err)
	}
	bits, err := m.ReadBits()
	if err != nil {
		return Shot{}, fmt.Errorf("runner: shot %d: %w", k, err)
	}
	return Shot{Index: k, Seed: seed, Result: res, Bits: bits}, nil
}

// Run compiles the spec once and executes `shots` repetitions across
// `workers` machine replicas (workers <= 0 picks GOMAXPROCS, capped at the
// shot count). The merged ShotSet is ordered by shot index and is
// byte-identical for every worker count.
func Run(spec Spec, shots, workers int) (*ShotSet, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shots {
		workers = shots
	}
	if shots == 0 {
		return &ShotSet{Shots: []Shot{}, NumBits: spec.Circuit.NumBits}, nil
	}

	// Compile once on replica 0 (a shared-cache hit if this circuit has
	// been seen before); the artifact is immutable from here on and every
	// replica shares it.
	first, cp, err := Build(spec, nil)
	if err != nil {
		return nil, err
	}
	machines := make([]*machine.Machine, workers)
	machines[0] = first
	for w := 1; w < workers; w++ {
		if machines[w], _, err = Build(spec, cp); err != nil {
			return nil, err
		}
	}
	return RunOn(machines, spec.Cfg.Seed, shots, spec.Circuit.NumBits)
}

// RunOn executes `shots` repetitions across the given already-loaded
// replicas, deriving shot k's seed from base via machine.DeriveSeed. It
// is the deterministic merge core of Run, exported so callers that pool
// machines across calls (internal/service batches jobs sharing an
// artifact onto the same replicas) reuse the exact same shot-indexed
// semantics: results land at their shot index, so the merged ShotSet is
// byte-identical for every replica count and completion order.
//
// Every machine must already be loaded with the same compiled artifact;
// each is reset before its first shot, so pool reuse cannot leak state
// between jobs.
func RunOn(machines []*machine.Machine, base int64, shots, numBits int) (*ShotSet, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("runner: RunOn with no machines")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: numBits}
	if shots == 0 {
		return set, nil
	}
	if len(machines) == 1 {
		for k := 0; k < shots; k++ {
			shot, err := runShot(machines[0], base, k)
			if err != nil {
				return nil, err
			}
			set.Shots[k] = shot
		}
		return set, nil
	}

	// Fan shots out. Each worker owns one replica; results land in the
	// pre-sized slice at their shot index, so merge order never depends on
	// completion order. Errors keep the lowest failing shot index so the
	// reported failure is deterministic too.
	idx := make(chan int)
	errs := make([]error, shots)
	var wg sync.WaitGroup
	for _, m := range machines {
		wg.Add(1)
		go func(m *machine.Machine) {
			defer wg.Done()
			for k := range idx {
				shot, err := runShot(m, base, k)
				if err != nil {
					errs[k] = err
					continue
				}
				set.Shots[k] = shot
			}
		}(m)
	}
	for k := 0; k < shots; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return set, nil
}

// RunRebuild is the legacy rebuild-per-shot reference path: every shot
// constructs a fresh machine and recompiles the circuit, deliberately
// bypassing the shared artifact cache (a cached "rebuild" would no longer
// measure what it claims to). It exists as the semantic baseline the
// reset path is verified against and as the "before" side of the
// shot-throughput benchmarks; new code should call Run.
func RunRebuild(spec Spec, shots int) (*ShotSet, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}
	for k := 0; k < shots; k++ {
		cfg := spec.Cfg
		cfg.Seed = machine.DeriveSeed(spec.Cfg.Seed, k)
		m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, cfg)
		if err != nil {
			return nil, err
		}
		cp, err := m.CompileFresh(spec.Circuit, spec.Mapping, m.CompileOptions())
		if err != nil {
			return nil, err
		}
		if err := m.Load(cp); err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("runner: rebuild shot %d: %w", k, err)
		}
		bits, err := m.ReadBits()
		if err != nil {
			return nil, fmt.Errorf("runner: rebuild shot %d: %w", k, err)
		}
		set.Shots[k] = Shot{Index: k, Seed: cfg.Seed, Result: res, Bits: bits}
	}
	return set, nil
}
