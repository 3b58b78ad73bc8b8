package runner

import (
	"fmt"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
)

// Batched-shot execution: a machine built with Cfg.ShotLanes = B carries B
// independent state lanes behind one chip, so one event-simulation replay
// of the loaded program (controllers, fabric, timing — the expensive part
// of a shot) executes a whole block of B shots. Each committed gate is
// dispatched to the backend once and applied to every lane; each
// measurement collapses every lane with its own RNG.
//
// The mode is valid exactly when the program's control flow is
// outcome-independent: no feed-forward (conditioned ops) and no classical
// bit written twice. Then every lane sees the same gate/measure sequence
// an unbatched shot would, so lane l of block b is byte-identical to
// unbatched shot b*B+l — including the Result, which without feed-forward
// does not depend on outcomes at all. Lane 0's bits flow through the
// controllers' result FIFOs into memory as usual; the other lanes' bits
// are reconstructed from the chip's per-lane measurement records, and
// lane 0's reconstruction is cross-checked against ReadBits every block.

// Batchable reports whether the circuit can run in batched-shot mode:
// outcome-independent control flow (no conditioned operations) and every
// classical bit measured at most once.
func Batchable(c *circuit.Circuit) bool {
	seen := make(map[int]bool)
	for _, op := range c.Ops {
		if op.Cond != nil {
			return false
		}
		if op.Kind == circuit.Measure {
			if op.CBit < 0 || seen[op.CBit] {
				return false
			}
			seen[op.CBit] = true
		}
	}
	return true
}

// measureOrder maps each controller to the classical bits its measurement
// commits write, in program order: commits from one controller happen in
// program order, so the k-th BatchMeas record with Node == n writes
// measureOrder[n][k].
func measureOrder(c *circuit.Circuit, cp *compiler.Compiled) map[int][]int {
	order := make(map[int][]int)
	for _, op := range c.Ops {
		if op.Kind == circuit.Measure {
			owner := cp.BitOwner[op.CBit]
			order[owner] = append(order[owner], op.CBit)
		}
	}
	return order
}

// laneBits reconstructs every lane's classical bits from the chip's
// per-lane measurement records.
func laneBits(m *machine.Machine, order map[int][]int, numBits int) ([][]int, error) {
	lanes := m.Lanes()
	bits := make([][]int, lanes)
	for l := range bits {
		bits[l] = make([]int, numBits)
	}
	taken := make(map[int]int, len(order))
	for _, rec := range m.BatchMeas() {
		k := taken[rec.Node]
		cbits := order[rec.Node]
		if k >= len(cbits) {
			return nil, fmt.Errorf("runner: controller %d committed %d measurements, program lowers %d", rec.Node, k+1, len(cbits))
		}
		taken[rec.Node] = k + 1
		cb := cbits[k]
		for l, out := range rec.Outcomes {
			bits[l][cb] = out
		}
	}
	return bits, nil
}

// RunBatched compiles the spec once and executes `shots` repetitions in
// blocks of `lanes` on a single lane-structured replica. Shot k runs with
// seed machine.DeriveSeed(base, k) exactly as in Run, so the merged
// ShotSet is byte-identical to the unbatched path; the package tests
// verify this shot-for-shot across backends. Circuits that are not
// Batchable are rejected — callers decide the fallback (plain Run).
func RunBatched(spec Spec, shots, lanes int) (*ShotSet, error) {
	if spec.Circuit == nil {
		return nil, fmt.Errorf("runner: nil circuit")
	}
	if shots < 0 {
		return nil, fmt.Errorf("runner: negative shot count %d", shots)
	}
	if lanes <= 1 {
		return Run(spec, shots, 1)
	}
	if !Batchable(spec.Circuit) {
		return nil, fmt.Errorf("runner: circuit is not batchable (feed-forward or re-measured bit)")
	}
	set := &ShotSet{Shots: make([]Shot, shots), NumBits: spec.Circuit.NumBits}
	if shots == 0 {
		return set, nil
	}
	spec.Cfg.ShotLanes = lanes
	m, cp, err := Build(spec, nil)
	if err != nil {
		return nil, err
	}
	order := measureOrder(spec.Circuit, cp)
	numBits := len(cp.BitOwner)
	base := spec.Cfg.Seed
	seeds := make([]int64, lanes)
	for k0 := 0; k0 < shots; k0 += lanes {
		for l := range seeds {
			seeds[l] = machine.DeriveSeed(base, k0+l)
		}
		if err := m.ResetBatch(seeds); err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("runner: block at shot %d: %w", k0, err)
		}
		bits, err := laneBits(m, order, numBits)
		if err != nil {
			return nil, err
		}
		// Lane 0 also flowed through the result FIFOs into controller
		// memory; the architectural readout must agree with the chip-side
		// reconstruction, or the program-order assumption broke.
		mem, err := m.ReadBits()
		if err != nil {
			return nil, err
		}
		for b := range mem {
			if mem[b] != bits[0][b] {
				return nil, fmt.Errorf("runner: lane-0 bit %d mismatch: memory %d, chip records %d", b, mem[b], bits[0][b])
			}
		}
		for l := 0; l < lanes && k0+l < shots; l++ {
			set.Shots[k0+l] = Shot{Index: k0 + l, Seed: seeds[l], Result: res, Bits: bits[l]}
		}
	}
	return set, nil
}
