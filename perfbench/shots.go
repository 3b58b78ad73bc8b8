package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/runner"
	"dhisq/internal/workloads"
)

// shotsPerCall is the length of one long runner.Run call on the shots
// workload: long enough that the per-call replica build is noise and the
// retained per-shot results show in peak RSS, short enough (about 0.2 s)
// that a run holds over a hundred calls, each next to its own timing of
// the host's speed.
const shotsPerCall = 250

// maxJobShots bounds the size of one job on the latency side of the
// shots workload: a RunOn of 1 to maxJobShots shots, drawn from the
// job's seed, plus its Histogram on a warm replica. A shot takes about
// 0.55 or 0.9 ms on the reference machine, as its cores run at one of
// two speeds (see README.md), so jobs of one size have two latencies
// with nothing in between, and their median jumps from one to the other
// as the share of fast time crosses a half. Mixed sizes fill the gap, so
// the median moves smoothly with that share, as the host-speed
// correction assumes.
const maxJobShots = 8

// jobShots is the shot count of the job with base seed seed.
func jobShots(seed int64) int { return 1 + int(uint64(seed)%maxJobShots) }

// jobChecks is how many jobs are re-run through the machine-level oracle
// after the window. Job k runs with base seed DeriveSeed(jobBase, k), so
// every job is different work, drawn from the family's own spread; the
// seed alone picks the checked jobs among the first minLatencyJobs.
const jobChecks = 64

// shotsLatencyShare is the share of the window spent on jobs, which give
// the latency distribution; the rest runs the long calls behind
// shots_per_s. Every long call is followed by its batch of jobs, so a
// slow stretch of the machine falls on both figures alike. The share
// gives a 50 s run about 7000 jobs.
const shotsLatencyShare = 0.5

// minLatencyJobs is the fewest jobs a run takes: p99 of 1100 samples
// leaves 11 beyond it.
const minLatencyJobs = 1100

// goldenShots holds the expected histogram digest of one shotsPerCall
// call for the default and the held-out seed. Any other seed is checked
// against the in-run oracle only.
var goldenShots = map[int64]string{
	defaultSeed: "861312867a073581410107594b7f73547bdac44ac96c8b6bb938c19185109bf6",
	heldOutSeed: "e7981fa59925df45e417f8c86387993a9d67df8eb98c8dd7455faa4918dca610",
}

// histDigest is the SHA-256 of the histogram's canonical JSON.
func histDigest(h runner.Histogram) string {
	data, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// shotsSpec builds bv_n400/8 compiled through cache.
func shotsSpec(cache *artifact.Cache, base int64) (runner.Spec, error) {
	b, err := workloads.BuildScaled("bv_n400", 8)
	if err != nil {
		return runner.Spec{}, err
	}
	cfg := machine.DefaultConfig(b.Circuit.NumQubits)
	// The config carries the mesh the machine is built on, as the
	// service's resolved specs do, so fingerprints and the traced compile
	// see the machine's topology.
	cfg.Net.MeshW, cfg.Net.MeshH = b.MeshW, b.MeshH
	cfg.Seed = base
	cfg.Artifacts = cache
	return runner.Spec{Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping, Cfg: cfg}, nil
}

func runShots(rc *runCtx) error {
	base := machine.DeriveSeed(rc.seed, 1)

	// Set-up: build the family and compile it into a fresh cache, several
	// times; the last cache serves the timed window.
	var spec runner.Spec
	var cache *artifact.Cache
	if err := rc.setup(101, func() error {
		cache = artifact.New(artifact.DefaultCapacity)
		var err error
		if spec, err = shotsSpec(cache, base); err != nil {
			return err
		}
		_, _, err = runner.Build(spec, nil)
		return err
	}); err != nil {
		return err
	}
	st0 := cache.Stats()
	// The jobs run on their own warm replica.
	m, _, err := runner.Build(spec, nil)
	if err != nil {
		return err
	}

	var firstSet *runner.ShotSet
	var want string
	var callTimes, tracedTimes, cycleTimes, lat, batchRates []float64
	var allocs, allocBytes uint64
	var allocShots int
	var probe probeStats
	var latDur time.Duration
	// Job seeds come from their own stream, apart from the long calls'.
	jobBase := machine.DeriveSeed(rc.seed, 2)
	var jobDigests []string
	traced := 0
	sameDigest, clean := true, true

	shotJob := func(k int) error {
		rc.attempted++
		t0 := time.Now()
		seed := machine.DeriveSeed(jobBase, k)
		set, err := runner.RunOn([]*machine.Machine{m}, seed, jobShots(seed), spec.Circuit.NumBits)
		var h runner.Histogram
		if err == nil {
			h = set.Histogram()
		}
		dt := time.Since(t0)
		if err != nil {
			rc.failed++
			return err
		}
		lat = append(lat, ms(dt))
		latDur += dt
		jobDigests = append(jobDigests, histDigest(h))
		return nil
	}

	end := time.Now().Add(rc.window())
	for call := 0; ; call++ {
		if call > 0 && time.Now().Add(time.Duration(median(cycleTimes)*float64(time.Second))).After(end) {
			break
		}
		rc.host.calibrate()
		cycleStart := time.Now()
		rc.attempted++
		// In traced runs every other call is the span-instrumented manual
		// loop; the untraced calls in between give the overhead baseline.
		if rc.tr != nil && call%2 == 1 {
			t0 := time.Now()
			set, h, err := tracedCall(rc.tr, spec, base, traced, &probe)
			tracedTimes = append(tracedTimes, time.Since(t0).Seconds())
			traced++
			if err != nil {
				rc.failed++
				return err
			}
			sameDigest = sameDigest && histDigest(h) == want && sameShots(set, firstSet)
		} else {
			var ms0, ms1 runtime.MemStats
			if rc.tr != nil {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			set, err := runner.Run(spec, shotsPerCall, 1)
			var h runner.Histogram
			if err == nil {
				h = set.Histogram()
			}
			dt := time.Since(t0).Seconds()
			if rc.tr != nil {
				runtime.ReadMemStats(&ms1)
				allocs += ms1.Mallocs - ms0.Mallocs
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				allocShots += shotsPerCall
			}
			if err != nil {
				rc.failed++
				return err
			}
			callTimes = append(callTimes, dt)
			d := histDigest(h)
			if firstSet == nil {
				firstSet, want = set, d
			}
			sameDigest = sameDigest && d == want
			clean = clean && cleanShots(set)
		}
		// The call's 2000 retained shots are garbage now. Collect them
		// before the jobs, so the first job after every call does not pay
		// for the call's heap: with one such job per call, about 1% of
		// the jobs, p99 would land on them in some runs and not others.
		callDur := time.Since(cycleStart)
		runtime.GC()
		batchEnd := time.Now().Add(time.Duration(float64(callDur) * shotsLatencyShare / (1 - shotsLatencyShare)))
		jobs0, dur0 := len(lat), latDur
		for time.Now().Before(batchEnd) {
			if err := shotJob(len(lat)); err != nil {
				return err
			}
		}
		if len(lat) > jobs0 {
			batchRates = append(batchRates, float64(len(lat)-jobs0)/(latDur-dur0).Seconds())
		}
		cycleTimes = append(cycleTimes, time.Since(cycleStart).Seconds())
	}
	for len(lat) < minLatencyJobs {
		if err := shotJob(len(lat)); err != nil {
			return err
		}
	}
	rc.check(sameDigest, "call digest", fmt.Sprintf("all %d runner.Run calls yield the same histogram", len(callTimes)+traced))
	rc.check(clean, "timing invariants", "0 timing violations and 0 misalignments in every shot")
	st1 := cache.Stats()
	rc.check(st1.Misses == st0.Misses, "no compile in window", "the timed window compiled nothing (artifact misses unchanged)")
	rc.peakRSS(selfVmHWM())

	// Oracle: the same shots through the machine's own calls, counted
	// outside the runner, must give the same histogram digest.
	oracle, err := oracleDigest(spec, base, shotsPerCall)
	if err != nil {
		return err
	}
	for _, k := range rand.New(rand.NewSource(rc.seed ^ 0x5107)).Perm(minLatencyJobs)[:jobChecks] {
		seed := machine.DeriveSeed(jobBase, k)
		o, err := oracleDigest(spec, seed, jobShots(seed))
		if err != nil {
			return err
		}
		if o != jobDigests[k] {
			return rc.check(false, "job digests", fmt.Sprintf("job %d matches the machine-level oracle", k))
		}
	}
	rc.check(true, "job digests", fmt.Sprintf("%d sampled jobs match the machine-level oracle", jobChecks))
	rc.check(oracle == want, "histogram digest", fmt.Sprintf("digest %s matches the machine-level oracle", want))
	if g, ok := goldenShots[rc.seed]; ok {
		rc.check(g == want, "golden digest", fmt.Sprintf("digest matches the recorded digest for seed %d", rc.seed))
	}

	perCall := make([]float64, len(callTimes))
	for i, t := range callTimes {
		perCall[i] = shotsPerCall / t
	}
	rc.timed("shots_per_s", median(perCall), "1/s", fmt.Sprintf("median over %d runner.Run calls of %d shots", len(callTimes), shotsPerCall))
	if err := rc.latency(lat, fmt.Sprintf("RunOn jobs of 1 to %d shots", maxJobShots)); err != nil {
		return err
	}
	rc.timed("capacity_jobs_per_s", median(batchRates), "1/s", fmt.Sprintf("median over %d batches of jobs of 1 to %d shots, closed loop, 1 client", len(batchRates), maxJobShots))
	rc.metric("sim_makespan_cycles", float64(firstSet.Shots[0].Result.Makespan), "cycles", "shot 0 of bv_n400/8")

	if rc.tr != nil {
		rc.shotPath(&probe)
		_, d := spanStats(rc.tr.snapshot(), "runner.merge")
		rc.layer("runner.merge_ms", d.Seconds()*1e3)
		rc.layer("runner.allocs_per_shot", float64(allocs)/float64(allocShots))
		rc.layer("runner.bytes_per_shot", float64(allocBytes)/float64(allocShots))
		if st1.Hits > st0.Hits {
			rc.layer("artifact.hit_ratio", float64(st1.Hits-st0.Hits)/float64(st1.Hits-st0.Hits+st1.Misses-st0.Misses))
		}
		if err := tracedCompile(rc, spec); err != nil {
			return err
		}
		rc.compilerLayers()
		rc.overhead(median(tracedTimes), median(callTimes))
		rc.selfTimes(func(span) bool { return true })
	}
	return nil
}

// tracedCall is one runner call spelled out with its layer calls in
// spans: per shot machine.Reset, machine.Run and ReadBits, then
// ShotSet.Histogram. It does the work runner.RunOn does on one replica.
func tracedCall(tr *tracer, spec runner.Spec, base int64, call int, probe *probeStats) (*runner.ShotSet, runner.Histogram, error) {
	root := tr.begin("runner.call", 0, call)
	defer tr.end(root)
	var m *machine.Machine
	var err error
	tr.do("machine.build", root, call, func() { m, _, err = runner.Build(spec, nil) })
	if err != nil {
		return nil, nil, err
	}
	set := &runner.ShotSet{Shots: make([]runner.Shot, shotsPerCall), NumBits: spec.Circuit.NumBits}
	for k := range set.Shots {
		seed := machine.DeriveSeed(base, k)
		id := tr.begin("machine.reset", root, call)
		m.Reset(seed)
		tr.end(id)
		var res machine.Result
		id = tr.begin("machine.run", root, call)
		res, err = m.Run()
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		var bits []int
		id = tr.begin("runner.readout", root, call)
		bits, err = m.ReadBits()
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		set.Shots[k] = runner.Shot{Index: k, Seed: seed, Result: res, Bits: bits}
		if call == 0 {
			probe.shots++
			probe.add(m, res)
		}
	}
	var h runner.Histogram
	tr.do("runner.merge", root, call, func() { h = set.Histogram() })
	return set, h, nil
}

// tracedCompile compiles the family once more through the timed pass
// pipeline, checked against CompileFresh, in a throwaway cache with an
// on-disk store attached, which spills the artifact. A second fresh cache
// over the same store then restores it, and the restored artifact must be
// reflect.DeepEqual to the compiled one. It records the store and
// artifact counters of the two caches.
func tracedCompile(rc *runCtx, spec runner.Spec) error {
	dir := filepath.Join(rc.workDir, fmt.Sprintf("store-%d-shots", os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	fp, err := machine.KeyFor(spec.Circuit, spec.Mapping, spec.Cfg)
	if err != nil {
		return err
	}
	compile, err := newReplayer(rc.tr, dir)
	if err != nil {
		return err
	}
	root := rc.tr.begin("setup.compile", 0, -1)
	compile.cur = spanCtx{root, -1}
	cp, _, err := compile.cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
		return compile.compileChecked(spec, false, root, -1)
	})
	rc.tr.end(root)
	if err != nil {
		return err
	}
	restore, err := newReplayer(rc.tr, dir)
	if err != nil {
		return err
	}
	root = rc.tr.begin("setup.restore", 0, -1)
	restore.cur = spanCtx{root, -1}
	got, ok := restore.cache.Get(fp)
	rc.tr.end(root)
	if err := rc.check(ok && reflect.DeepEqual(got, cp), "store round trip",
		"the artifact spilled to the store and restored in a fresh cache equals the compiled one"); err != nil {
		return err
	}
	cst, rst := compile.cacheStats(), restore.cacheStats()
	rc.layer("artifact.misses", float64(cst.Misses))
	rc.layer("store.spills", float64(cst.Spills))
	rc.layer("store.hits", float64(rst.StoreHits))
	return nil
}

// oracleDigest runs shots shots from base seed base with the machine's
// own Reset, Run and ReadBits and counts the histogram itself.
func oracleDigest(spec runner.Spec, base int64, shots int) (string, error) {
	m, _, err := runner.Build(spec, nil)
	if err != nil {
		return "", err
	}
	h := runner.Histogram{}
	key := make([]byte, 0, spec.Circuit.NumBits)
	for k := 0; k < shots; k++ {
		m.Reset(machine.DeriveSeed(base, k))
		if _, err := m.Run(); err != nil {
			return "", err
		}
		bits, err := m.ReadBits()
		if err != nil {
			return "", err
		}
		key = key[:0]
		for _, b := range bits {
			key = append(key, '0'+byte(b&1))
		}
		h[string(key)]++
	}
	return histDigest(h), nil
}

// cleanShots reports whether no shot saw a timing violation or a
// co-commitment misalignment.
func cleanShots(set *runner.ShotSet) bool {
	for _, s := range set.Shots {
		if s.Result.Violations != 0 || s.Result.Misalignments != 0 {
			return false
		}
	}
	return true
}

// sameShots reports whether two shot sets hold the same seeds, bits and
// makespans.
func sameShots(a, b *runner.ShotSet) bool {
	if len(a.Shots) != len(b.Shots) {
		return false
	}
	for i := range a.Shots {
		x, y := a.Shots[i], b.Shots[i]
		if x.Seed != y.Seed || x.Result.Makespan != y.Result.Makespan || !reflect.DeepEqual(x.Bits, y.Bits) {
			return false
		}
	}
	return true
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
