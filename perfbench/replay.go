package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/service"
	"dhisq/internal/sim"
	"dhisq/internal/store"
	"dhisq/internal/telf"
	"dhisq/internal/workloads"
)

// toServiceRequest turns a wire submission into the service.Request the
// daemon builds from it: QASM or a named benchmark, the benchmark's
// default binding for bare parameterized submissions, and a topology or
// link-bandwidth override as an explicit machine config.
func toServiceRequest(w wireRequest) (service.Request, error) {
	var req service.Request
	var defaults map[string]float64
	switch {
	case w.QASM != "":
		c, err := circuit.ParseQASM(w.QASM)
		if err != nil {
			return req, err
		}
		req = service.Request{Circuit: c}
	case w.Bench != "":
		b, err := workloads.BuildScaled(w.Bench, max(w.Scale, 1))
		if err != nil {
			return req, err
		}
		req = service.Request{Circuit: b.Circuit, MeshW: b.MeshW, MeshH: b.MeshH, Mapping: b.Mapping}
		defaults = b.DefaultParams
	default:
		return req, fmt.Errorf("job names no circuit")
	}
	req.Shots, req.Seed = w.Shots, w.Seed
	req.Placement, req.Chips = w.Placement, w.Chips
	req.Params, req.Sweep = w.Params, w.Sweep
	if req.Params == nil && len(req.Sweep) == 0 {
		req.Params = defaults
	}
	if w.Topo != "" || w.LinkBW != 0 {
		cfg := machine.DefaultConfig(req.Circuit.NumQubits)
		if w.Topo != "" {
			kind, err := network.ParseTopology(w.Topo)
			if err != nil {
				return req, err
			}
			cfg.Net.Topology = kind
		}
		cfg.Net.LinkSerialization = w.LinkBW
		req.Cfg = &cfg
	}
	return req, nil
}

// resolveSpec fills in what the service resolves at admission for the
// request fields the job mixes use — the auto mesh, the machine config,
// the placement and chip overrides with the mesh grown for communication
// qubits — and returns the runner spec a job executes with. The replay
// checks its fingerprint against the one the daemon reports, so any
// divergence from the service's own resolution fails the run.
func resolveSpec(req service.Request) runner.Spec {
	if req.MeshW <= 0 || req.MeshH <= 0 {
		req.MeshW, req.MeshH = placement.AutoMesh(req.Circuit.NumQubits)
	}
	cfg := machine.DefaultConfig(req.Circuit.NumQubits)
	if req.Cfg != nil {
		cfg = *req.Cfg
	}
	cfg.Net.MeshW, cfg.Net.MeshH = req.MeshW, req.MeshH
	if req.Placement != "" {
		cfg.Placement = req.Placement
	}
	if req.Chips != 0 {
		cfg.Chips = req.Chips
	}
	if cfg.Chips > 1 {
		if total := cfg.TotalQubits(req.Circuit.NumQubits); req.MeshW*req.MeshH < total {
			req.MeshW, req.MeshH = placement.AutoMesh(total)
			cfg.Net.MeshW, cfg.Net.MeshH = req.MeshW, req.MeshH
		}
	}
	cfg.Seed = req.Seed
	return runner.Spec{Circuit: req.Circuit, MeshW: req.MeshW, MeshH: req.MeshH, Mapping: req.Mapping, Cfg: cfg}
}

// outcome is a job's result as the wire carries it: the JSON bytes of
// its histogram, or of its sweep points, plus shot 0's makespan.
type outcome struct {
	Result      []byte // canonical JSON of "histogram" or "points"
	Makespan    int64
	Fingerprint string
}

// timedPass wraps a compiler pass in a span.
type timedPass struct {
	compiler.Pass
	tr          *tracer
	parent, job int
}

func (p timedPass) Run(st *compiler.State) error {
	id := p.tr.begin("compiler."+p.Pass.Name(), p.parent, p.job)
	defer p.tr.end(id)
	return p.Pass.Run(st)
}

// timedPipeline is the standard pass sequence with every pass in a span.
func timedPipeline(tr *tracer, parent, job int) *compiler.Pipeline {
	passes := compiler.NewPipeline().Passes
	for i, p := range passes {
		passes[i] = timedPass{Pass: p, tr: tr, parent: parent, job: job}
	}
	return &compiler.Pipeline{Passes: passes}
}

// spanCtx is the span a callback-driven layer nests its spans under.
type spanCtx struct{ parent, job int }

// timedStore is the on-disk store with its restore and spill in spans
// (each includes the file I/O around store.Decode / store.Encode). The
// cache calls it from inside Get and GetOrCompile, so the replayer points
// cur at the enclosing cache span before each call.
type timedStore struct {
	st  *store.Store
	tr  *tracer
	cur *spanCtx
}

func (s timedStore) Load(fp artifact.Fingerprint) (*compiler.Compiled, bool) {
	id := s.tr.begin("store.decode", s.cur.parent, s.cur.job)
	defer s.tr.end(id)
	return s.st.Load(fp)
}

func (s timedStore) Save(fp artifact.Fingerprint, cp *compiler.Compiled) error {
	id := s.tr.begin("store.encode", s.cur.parent, s.cur.job)
	defer s.tr.end(id)
	return s.st.Save(fp, cp)
}

// replayer re-executes jobs in process through the calls the service
// makes: RouteKey, the artifact cache (with the timed pass pipeline on a
// miss), BindParams, runner.Build / BuildSkeleton, RunOn, Histogram and
// JSON encoding. Replicas are pooled per fingerprint like the service's
// pool, and every fresh compile is checked against machine.CompileFresh.
type replayer struct {
	tr    *tracer
	cache *artifact.Cache
	cur   spanCtx // enclosing span of the cache call in flight
	pool  replicaLRU

	binds         int
	probe         probeStats
	allocs, bytes uint64 // heap allocations inside RunOn (traced only)
	runShots      int
	base          artifact.Stats // cache counters at the last mark
}

// mark starts a fresh measurement: the replay's counters restart from
// zero and the cache counters and spans recorded so far no longer count.
func (r *replayer) mark() {
	r.binds, r.allocs, r.bytes, r.runShots = 0, 0, 0, 0
	r.probe = probeStats{}
	r.base = r.cache.Stats()
}

// cacheStats is the cache's counter delta since the last mark.
func (r *replayer) cacheStats() artifact.Stats {
	st := r.cache.Stats()
	st.Hits -= r.base.Hits
	st.Misses -= r.base.Misses
	st.StoreHits -= r.base.StoreHits
	st.StoreMisses -= r.base.StoreMisses
	st.Spills -= r.base.Spills
	return st
}

// newReplayer returns a replayer over a fresh artifact cache of the
// daemon's default capacity, with the on-disk store at storeDir attached
// when storeDir is non-empty.
func newReplayer(tr *tracer, storeDir string) (*replayer, error) {
	r := &replayer{tr: tr, cache: artifact.New(artifact.DefaultCapacity), pool: newReplicaLRU()}
	if storeDir != "" {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return nil, err
		}
		r.cache.SetStore(timedStore{st: st, tr: tr, cur: &r.cur})
	}
	return r, nil
}

// replicaLRU mirrors the service's replica pool for one shot worker per
// job: one loaded machine per fingerprint, least recently used dropped
// beyond the default budget of four replicas per service worker.
type replicaLRU struct {
	budget   int
	machines map[artifact.Fingerprint]*machine.Machine
	order    []artifact.Fingerprint // front = most recently used
}

func newReplicaLRU() replicaLRU {
	return replicaLRU{budget: 4 * max(1, runtime.GOMAXPROCS(0)/2), machines: map[artifact.Fingerprint]*machine.Machine{}}
}

func (p *replicaLRU) get(fp artifact.Fingerprint) *machine.Machine { return p.machines[fp] }

func (p *replicaLRU) put(fp artifact.Fingerprint, m *machine.Machine) {
	for i, f := range p.order {
		if f == fp {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.order = append([]artifact.Fingerprint{fp}, p.order...)
	p.machines[fp] = m
	for len(p.order) > p.budget {
		delete(p.machines, p.order[len(p.order)-1])
		p.order = p.order[:len(p.order)-1]
	}
}

// compileChecked compiles spec's circuit through the timed pipeline, on
// the same State machine.compile builds (the config's topology, its
// fabric windows, the machine-derived options), and proves the traced
// path runs the same program: the artifact must be reflect.DeepEqual to a
// fresh compile of the same input. The check runs in a probe span, so its
// work stays out of every reported layer.
func (r *replayer) compileChecked(spec runner.Spec, skeleton bool, parent, idx int) (*compiler.Compiled, error) {
	topo, err := network.NewTopology(spec.Cfg.Net)
	if err != nil {
		return nil, err
	}
	opt, err := machine.CompileOptionsFor(spec.Cfg)
	if err != nil {
		return nil, err
	}
	cp, err := timedPipeline(r.tr, parent, idx).Run(&compiler.State{
		Circuit: spec.Circuit, Mapping: spec.Mapping, Topo: topo,
		Windows: network.NewFabric(sim.NewEngine(), topo, nil), Opt: opt,
	})
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("probe.check", parent, idx)
	defer r.tr.end(id)
	// CompileFresh refuses unbound circuits; a skeleton compiled in a
	// throwaway cache is the same fresh compile.
	ocfg := spec.Cfg
	ocfg.Artifacts = artifact.New(1)
	m, err := machine.NewForCircuit(spec.Circuit, spec.MeshW, spec.MeshH, ocfg)
	if err != nil {
		return nil, err
	}
	var ref *compiler.Compiled
	if skeleton {
		ref, err = m.CompileSkeleton(spec.Circuit, spec.Mapping)
	} else {
		ref, err = m.CompileFresh(spec.Circuit, spec.Mapping, m.CompileOptions())
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(cp, ref) {
		return nil, fmt.Errorf("timed pass pipeline artifact differs from machine.CompileFresh")
	}
	return cp, nil
}

// run replays job idx and returns its wire outcome.
func (r *replayer) run(j job, idx int) (outcome, error) {
	root := r.tr.begin("replay.job", 0, idx)
	defer r.tr.end(root)
	tr := r.tr
	var req service.Request
	var err error
	tr.do("service.parse", root, idx, func() { req, err = toServiceRequest(j.Req) })
	if err != nil {
		return outcome{}, err
	}
	var routeErr error
	tr.do("service.routekey", root, idx, func() { _, routeErr = service.RouteKey(req) })
	if routeErr != nil {
		return outcome{}, routeErr
	}
	spec := resolveSpec(req)
	spec.Cfg.Artifacts = r.cache
	bind := req.Params != nil || len(req.Sweep) > 0
	var fp artifact.Fingerprint
	tr.do("service.fingerprint", root, idx, func() {
		if bind {
			fp, err = machine.StructuralKeyFor(spec.Circuit, spec.Mapping, spec.Cfg)
		} else {
			fp, err = machine.KeyFor(spec.Circuit, spec.Mapping, spec.Cfg)
		}
	})
	if err != nil {
		return outcome{}, err
	}

	var cp *compiler.Compiled
	var hit bool
	id := tr.begin("artifact.get", root, idx)
	r.cur = spanCtx{id, idx}
	cp, hit = r.cache.Get(fp)
	tr.end(id)
	m := r.pool.get(fp)
	if !hit && m == nil {
		id := tr.begin("artifact.getorcompile", root, idx)
		r.cur = spanCtx{id, idx}
		cp, _, err = r.cache.GetOrCompile(fp, func() (*compiler.Compiled, error) {
			return r.compileChecked(spec, bind, id, idx)
		})
		tr.end(id)
		if err != nil {
			return outcome{}, err
		}
	}
	if m == nil {
		tr.do("machine.build", root, idx, func() {
			if bind {
				m, _, err = runner.BuildSkeleton(spec, cp)
			} else {
				m, _, err = runner.Build(spec, cp)
			}
		})
		if err != nil {
			return outcome{}, err
		}
	}
	r.pool.put(fp, m)
	if bind && cp == nil {
		cp = m.Loaded() // pooled replica outlived its cache entry
	}
	out := outcome{Fingerprint: fp.String()}
	numBits := req.Circuit.NumBits

	runBound := func(params map[string]float64, seed int64) (*runner.ShotSet, error) {
		if params != nil {
			var bound *compiler.Compiled
			tr.do("compiler.bind", root, idx, func() { bound, err = cp.BindParams(params) })
			if err != nil {
				return nil, err
			}
			r.binds++
			tr.do("machine.load", root, idx, func() { err = m.Load(bound) })
			if err != nil {
				return nil, err
			}
		}
		var set *runner.ShotSet
		var ms0, ms1 runtime.MemStats
		if tr != nil {
			tr.do("probe.memstats", root, idx, func() { runtime.ReadMemStats(&ms0) })
		}
		tr.do("runner.run", root, idx, func() { set, err = runner.RunOn([]*machine.Machine{m}, seed, req.Shots, numBits) })
		if err != nil {
			return nil, err
		}
		r.runShots += req.Shots
		if tr != nil {
			// The probe is the benchmark's own work: its span keeps it out
			// of every reported layer's self time.
			id := tr.begin("probe.shot", root, idx)
			runtime.ReadMemStats(&ms1)
			r.allocs += ms1.Mallocs - ms0.Mallocs
			r.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			err = r.probe.shot(m, set, seed)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		return set, nil
	}

	if len(req.Sweep) > 0 {
		points := make([]service.PointStatus, len(req.Sweep))
		for k, params := range req.Sweep {
			set, err := runBound(params, machine.DeriveSeed(req.Seed, k))
			if err != nil {
				return outcome{}, fmt.Errorf("sweep point %d: %w", k, err)
			}
			var h runner.Histogram
			tr.do("runner.merge", root, idx, func() { h = set.Histogram() })
			points[k] = service.PointStatus{Index: k, Params: params, Histogram: h, Makespan: int64(set.Shots[0].Result.Makespan)}
		}
		out.Makespan = points[0].Makespan
		tr.do("wire.encode", root, idx, func() { out.Result, err = json.Marshal(points) })
		return out, err
	}
	set, err := runBound(req.Params, req.Seed)
	if err != nil {
		return outcome{}, err
	}
	var h runner.Histogram
	tr.do("runner.merge", root, idx, func() { h = set.Histogram() })
	out.Makespan = int64(set.Shots[0].Result.Makespan)
	tr.do("wire.encode", root, idx, func() { out.Result, err = json.Marshal(h) })
	return out, err
}

// probeStats accumulates the shot-path split of a replay: after each
// RunOn, shot 0 is re-executed on the same replica with the machine's
// calls timed one by one, and its bits and makespan must equal what
// RunOn produced.
type probeStats struct {
	shots                 int
	reset, run, readout   time.Duration
	events, messages      uint64
	instrs, syncStall     uint64
	netStall, gates, eprs uint64
}

func (p *probeStats) shot(m *machine.Machine, set *runner.ShotSet, base int64) error {
	if len(set.Shots) == 0 {
		return nil
	}
	t0 := time.Now()
	m.Reset(machine.DeriveSeed(base, 0))
	t1 := time.Now()
	res, err := m.Run()
	t2 := time.Now()
	if err != nil {
		return err
	}
	bits, err := m.ReadBits()
	t3 := time.Now()
	if err != nil {
		return err
	}
	want := set.Shots[0]
	if res.Makespan != want.Result.Makespan || !reflect.DeepEqual(bits, want.Bits) {
		return fmt.Errorf("probe shot differs from RunOn shot 0")
	}
	p.shots++
	p.reset += t1.Sub(t0)
	p.run += t2.Sub(t1)
	p.readout += t3.Sub(t2)
	p.add(m, res)
	return nil
}

// add folds one shot's machine counters into the totals.
func (p *probeStats) add(m *machine.Machine, res machine.Result) {
	p.events += m.Eng.Processed()
	p.messages += shotMessages(m)
	p.instrs += res.Instructions
	p.syncStall += uint64(res.SyncStall)
	p.netStall += uint64(res.NetStall)
	p.gates += res.Gates
	p.eprs += res.EPRPairs
}

// shotMessages counts the last shot's fabric traffic: controller
// messages sent plus the routers' sync booking and broadcast messages.
func shotMessages(m *machine.Machine) uint64 {
	n := uint64(m.Log.Count(telf.MsgSend))
	for i := 0; i < m.Topo.NumRouters; i++ {
		n += uint64(m.Fab.Router(m.Topo.N + i).Messages)
	}
	return n
}
