package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

// wireRequest is the POST /v1/jobs body: the subset of dhisq-serve's
// submission fields the benchmark's job mixes use.
type wireRequest struct {
	QASM      string               `json:"qasm,omitempty"`
	Bench     string               `json:"bench,omitempty"`
	Scale     int                  `json:"scale,omitempty"`
	Shots     int                  `json:"shots"`
	Seed      int64                `json:"seed"`
	Topo      string               `json:"topo,omitempty"`
	LinkBW    int64                `json:"link_bw,omitempty"`
	Placement string               `json:"placement,omitempty"`
	Chips     int                  `json:"chips,omitempty"`
	Params    map[string]float64   `json:"params,omitempty"`
	Sweep     []map[string]float64 `json:"sweep,omitempty"`
}

// job is one generated submission.
type job struct {
	Kind   string      `json:"kind"`   // ghz, qft30, torus, vqe, dvqe-sweep, cold-<kind>
	Family string      `json:"family"` // distinct compiled-artifact family
	Req    wireRequest `json:"req"`
	Stream bool        `json:"stream,omitempty"` // read the result through /stream
	Seeded bool        `json:"seeded,omitempty"` // serve-cold: spilled to the store during set-up
}

// jobSeed draws a non-zero job seed, so the daemon never derives one from
// its own admission counter and every job replays in process bit for bit.
func jobSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<62) + 1 }

// warmFamily is one circuit family of the serve-warm mix; make builds the
// k-th job of the family.
type warmFamily struct {
	kind, family string
	make         func(rng *rand.Rand) job
}

// warmFamilies lists the serve-warm families. The set is fixed; the seed
// picks job seeds, parameter points and the order of the blend.
func warmFamilies() []warmFamily {
	var fams []warmFamily
	for _, n := range []int{4, 6, 8, 10, 12} {
		src, err := circuit.WriteQASM(workloads.GHZ(n))
		if err != nil {
			panic(err)
		}
		fam := fmt.Sprintf("ghz%d", n)
		fams = append(fams, warmFamily{"ghz", fam, func(rng *rand.Rand) job {
			return job{Req: wireRequest{QASM: src, Shots: 32, Seed: jobSeed(rng)}}
		}})
	}
	fams = append(fams, warmFamily{"qft30", "qft_n30", func(rng *rand.Rand) job {
		return job{Req: wireRequest{Bench: "qft_n30", Shots: 4, Seed: jobSeed(rng)}}
	}})
	for _, bw := range []int64{2, 4} {
		fams = append(fams, warmFamily{"torus", fmt.Sprintf("bv_n400/16-torus-bw%d", bw), func(rng *rand.Rand) job {
			return job{Req: wireRequest{Bench: "bv_n400", Scale: 16, Shots: 8, Seed: jobSeed(rng), Topo: "torus", LinkBW: bw}}
		}})
	}
	for _, n := range []int{6, 8} {
		src, err := circuit.WriteQASM(workloads.VQEAnsatz(n, 2))
		if err != nil {
			panic(err)
		}
		fams = append(fams, warmFamily{"vqe", fmt.Sprintf("vqe%d", n), func(rng *rand.Rand) job {
			return job{Req: wireRequest{QASM: src, Shots: 16, Seed: jobSeed(rng),
				Params: workloads.VQEAnsatzPoint(n, 2, rng.Intn(1000))}}
		}})
	}
	const dvqeQubits, dvqeLayers = 16, 2 // workloads.BuildScaled("dvqe", 1)
	fams = append(fams, warmFamily{"dvqe-sweep", "dvqe-chips2", func(rng *rand.Rand) job {
		k := rng.Intn(1000)
		sweep := make([]map[string]float64, 4)
		for i := range sweep {
			sweep[i] = workloads.DistributedVQEPoint(dvqeQubits, dvqeLayers, k+i)
		}
		return job{Stream: true, Req: wireRequest{Bench: "dvqe", Chips: 2, Shots: 4, Seed: jobSeed(rng), Sweep: sweep}}
	}})
	return fams
}

// warmKindShare is how many jobs of each kind — ghz, qft30, torus, vqe,
// dvqe-sweep — every block of consecutive serve-warm jobs holds: the
// five kinds the mix blends weigh the same. It is the least count that
// each kind's family count (5, 1, 2, 2, 1) divides.
const warmKindShare = 10

// warmBlock is the serve-warm blend: how many jobs of each family every
// block holds. A kind's share is split equally among its families.
func warmBlock(fams []warmFamily) map[string]int {
	perKind := map[string]int{}
	for _, f := range fams {
		perKind[f.kind]++
	}
	block := map[string]int{}
	for _, f := range fams {
		block[f.family] = warmKindShare / perKind[f.kind]
	}
	return block
}

// genWarm returns the first n jobs of the serve-warm list for seed. The
// seed shuffles each block, so any window of the list carries the same
// mix.
func genWarm(seed int64, n int) []job {
	rng := rand.New(rand.NewSource(seed))
	fams := warmFamilies()
	counts := warmBlock(fams)
	var block []warmFamily
	for _, f := range fams {
		for i := 0; i < counts[f.family]; i++ {
			block = append(block, f)
		}
	}
	out := make([]job, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, f := range block {
			if len(out) == n {
				break
			}
			j := f.make(rng)
			j.Kind, j.Family = f.kind, f.family
			out = append(out, j)
		}
	}
	return out
}

// warmFamilyJobs returns one job per serve-warm family (the warm-up set).
func warmFamilyJobs(seed int64) []job {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []job
	for _, f := range warmFamilies() {
		j := f.make(rng)
		j.Kind, j.Family = f.kind, f.family
		out = append(out, j)
	}
	return out
}

// coldKinds are the circuit generators of the serve-cold families. Sizes
// keep dense state-vector jobs small: non-Clifford kinds stay at ≤ 10
// qubits, Clifford kinds jump past the 14-qubit state-vector limit onto
// the stabilizer backend.
var coldKinds = []struct {
	name   string
	sizes  []int
	build  func(rng *rand.Rand, n int) *circuit.Circuit
	chips2 bool // may also run split across two chips
}{
	{"ghz", []int{16, 24, 32, 40, 48}, func(_ *rand.Rand, n int) *circuit.Circuit { return workloads.GHZ(n) }, true},
	{"bv", []int{16, 24, 32, 40, 48}, func(rng *rand.Rand, n int) *circuit.Circuit {
		secret := rng.Int63()
		return workloads.BV(n, func(i int) bool { return secret>>uint(i%62)&1 == 1 })
	}, false},
	{"qft", []int{6, 7, 8, 9, 10}, func(_ *rand.Rand, n int) *circuit.Circuit { return workloads.QFT(n) }, true},
	{"wstate", []int{6, 7, 8, 9, 10}, func(_ *rand.Rand, n int) *circuit.Circuit { return workloads.WState(n) }, false},
}

// coldPlacements are the placement policies serve-cold families compile
// under; "" is the daemon default (identity).
var coldPlacements = []string{"", "", "interaction", "rowmajor"}

// genCold returns n distinct serve-cold families, one job each. Every
// block of consecutive jobs holds each (kind, size, placement, chips)
// shape once, in an order the seed shuffles. A seeded Pauli-X prefix on a random qubit
// subset makes every family's compiled artifact distinct while keeping
// Clifford circuits Clifford. Odd-indexed jobs are the seeded half: their
// artifacts are spilled to the store during set-up.
func genCold(seed int64, n int) []job {
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	type shape struct {
		kind, size int
		placement  string
		chips      int
	}
	var block []shape
	for k, kind := range coldKinds {
		for si, q := range kind.sizes {
			for pi, pl := range coldPlacements {
				sh := shape{k, q, pl, 0}
				if kind.chips2 && (si+pi)%4 == 0 {
					sh.chips = 2
				}
				block = append(block, sh)
			}
		}
	}
	seen := make(map[string]bool, n)
	out := make([]job, 0, n)
	for i := 0; len(out) < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		sh := block[i%len(block)]
		k, q := coldKinds[sh.kind], sh.size
		base := k.build(rng, q)
		c := circuit.New(q)
		mask := rng.Int63n(1<<uint(min(q, 62))-1) + 1
		for i := 0; i < q && i < 62; i++ {
			if mask>>uint(i)&1 == 1 {
				c.X(i)
			}
		}
		c.Append(base)
		src, err := circuit.WriteQASM(c)
		if err != nil {
			panic(err)
		}
		req := wireRequest{QASM: src, Shots: 8, Seed: jobSeed(rng), Placement: sh.placement, Chips: sh.chips}
		key := fmt.Sprintf("%s|%s|%d", src, req.Placement, req.Chips)
		if seen[key] {
			continue
		}
		seen[key] = true
		idx := len(out)
		out = append(out, job{Kind: "cold-" + k.name, Family: fmt.Sprintf("cold-%d", idx), Req: req, Seeded: idx%2 == 1})
	}
	return out
}

// jobListBytes is the canonical encoding of a job list: the bytes the
// generator's determinism test compares.
func jobListBytes(jobs []job) []byte {
	data, err := json.Marshal(jobs)
	if err != nil {
		panic(err)
	}
	return data
}
