// Package service is the request-serving layer of the stack: a long-lived
// job manager that turns circuit submissions into shot executions on a
// bounded worker pool, built directly on internal/runner's deterministic
// shot merge and internal/artifact's compile-once cache.
//
// The execution model separates the reusable compiled program from the
// per-request schedule (the split Riverlane's distributed VQE controller
// and the DisQ processor model both argue for): a job is fingerprinted on
// submission, compilation goes through the shared artifact cache, and
// loaded machine replicas are pooled *per artifact*, so a burst of jobs
// for the same circuit batches onto the same warm replicas — no compile,
// no machine construction, just reset-and-run per shot.
//
// Determinism survives the service boundary. Every job runs with its own
// base seed (caller-chosen, or derived from the service seed and the job's
// admission index), shot k of a job uses machine.DeriveSeed(jobSeed, k),
// and results merge shot-indexed via runner.RunOn — so a job's ShotSet is
// byte-identical whether it ran on one pooled replica or four, cold cache
// or warm.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
)

// Config parameterizes a Service.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0 picks
	// GOMAXPROCS/2, minimum 1). Each running job additionally fans its
	// shots across ShotWorkers replicas.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// Submit fails with ErrQueueFull beyond it (<= 0 means 64).
	QueueDepth int
	// ShotWorkers is the replica count a single job's shots fan out
	// across (<= 0 means 1; service throughput usually comes from job
	// parallelism, not per-job fan-out).
	ShotWorkers int
	// Seed is the service base seed: job n with no explicit seed runs
	// with machine.DeriveSeed(Seed, n) (0 means 1).
	Seed int64
	// MaxPooledReplicas bounds the loaded machines kept warm across all
	// artifacts (<= 0 means 4 * Workers). Least recently used artifact
	// pools are dropped first.
	MaxPooledReplicas int
	// MaxRetainedJobs bounds how many finished jobs stay queryable
	// (<= 0 means 4096). Oldest-finished are forgotten first, so a
	// long-lived daemon's memory does not grow with total traffic; a
	// Get/Wait for a forgotten job reports not-found.
	MaxRetainedJobs int
	// MaxSweepPoints bounds the points one sweep job may carry
	// (<= 0 means 4096). The job queue bounds jobs, not work: without
	// this cap a single submission could monopolize a worker forever and
	// retain an unbounded Points snapshot past completion.
	MaxSweepPoints int
	// Artifacts is the compiled-artifact cache this service compiles
	// through (nil = the process-wide artifact.Shared). A service with a
	// private cache — typically one with an on-disk store attached via
	// artifact.Cache.SetStore — keeps its compile accounting and its
	// restart-warm behavior independent of everything else in the process,
	// which is what the in-process cluster and crash/restart tests need.
	Artifacts *artifact.Cache
	// ReplaceStallThreshold enables congestion-feedback re-placement: the
	// service aggregates per-link fabric stalls per replica-pool group
	// (compiler.Feedback), and once a group's total crosses this many
	// cycles it recompiles the circuit with a feedback-weighted placement
	// (machine.RePlace) and swaps the group's replicas — the structural
	// key is untouched, so a sweep family keeps its bind cache while its
	// warm replicas get a less congested mapping. 0 (the default)
	// disables the loop entirely: first-run behavior is byte-identical to
	// a service without it.
	ReplaceStallThreshold uint64
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Request describes one job: a circuit, its placement, and how many shots
// to run.
type Request struct {
	Circuit *circuit.Circuit
	// MeshW/MeshH give the controller mesh; 0 picks a near-square mesh
	// for the circuit like the facade's Sample.
	MeshW, MeshH int
	Mapping      []int // qubit -> controller; nil = identity
	// Cfg overrides the machine configuration when non-nil (the mesh
	// fields are taken from MeshW/MeshH either way).
	Cfg *machine.Config
	// Placement names the placement policy the compiler applies when
	// Mapping is nil ("" defers to Cfg.Placement, then to identity).
	// Unknown names are rejected at admission, before any work queues.
	Placement string
	// Schedule names the scheduling policy of the compiler's Schedule
	// pass ("" defers to Cfg.Schedule, then to the fixed replay).
	// Validated at admission exactly like Placement.
	Schedule string
	// Collective names a network.CollSchedule ("naive", "ring", "halving",
	// "tree", "auto") and switches the job onto the collective-aware
	// lowering plus the post-run digest reduce ("" defers to
	// Cfg.Collective, then to off). Validated at admission like the other
	// policy names.
	Collective string
	// Chips splits the device into a multi-chip partition (machine
	// config Chips; 0/1 = the legacy single-chip machine). Cross-chip
	// two-qubit gates compile into EPR-mediated teleported gates, so
	// chip count is compile-relevant: it joins the artifact fingerprint
	// and thereby the replica-pool key, keeping pools chip-homogeneous.
	// Validated at admission (bounded by the circuit's qubit count,
	// incompatible with an explicit Mapping).
	Chips int
	// EPRLatency overrides the EPR pair-generation latency in cycles for
	// multi-chip jobs (0 defers to Cfg.EPRLatency, then to the machine
	// default). Compile-relevant like Chips.
	EPRLatency sim.Time
	Shots      int
	// Seed, when non-zero, is the job's base seed; 0 lets the service
	// derive a per-job seed from its own seed stream.
	Seed int64
	// Params binds the circuit's symbolic parameters for this job. The
	// job is fingerprinted on the bind-invariant structural key, so every
	// binding of one skeleton shares a single compiled artifact (patched
	// per job by BindParams) and one replica pool. The map must supply
	// every symbolic parameter of the circuit. Mutually exclusive with
	// Sweep.
	Params map[string]float64
	// Sweep runs the circuit at every listed parameter point — Shots
	// repetitions each, point k seeded from DeriveSeed(jobSeed, k) — all
	// inside one job against one compiled skeleton. Results arrive as
	// JobStatus.Points instead of a single ShotSet.
	Sweep []map[string]float64
}

// bindJob reports whether the request goes through the parameter-binding
// path (structural fingerprint + per-point BindParams).
func (r Request) bindJob() bool { return r.Params != nil || len(r.Sweep) > 0 }

// JobStatus is a point-in-time snapshot of a job, safe to retain.
type JobStatus struct {
	ID          string
	State       State
	Shots       int
	Seed        int64
	Fingerprint string // artifact fingerprint (hex)
	CacheHit    bool   // compilation was served from the artifact cache
	Batched     bool   // ran on pooled replicas warmed by an earlier job
	// MeshW/MeshH are the resolved controller-mesh dimensions and
	// Placement the resolved policy name — echoed so remote users can see
	// why two submissions landed in different replica pools.
	MeshW, MeshH int
	Placement    string
	// Schedule is the resolved scheduling policy name, echoed like
	// Placement.
	Schedule string
	// Chips is the resolved chip count the job compiled with (0 = the
	// legacy single-chip machine), echoed like Placement; EPRPairs
	// totals the EPR pairs generated across the job's shots (0 for
	// single-chip jobs and for sweep jobs, which drop their shot sets).
	Chips    int
	EPRPairs uint64
	// Mapping is the final qubit→controller mapping the job compiled with
	// (nil = identity), as resolved by the compiler's Place pass. A job
	// served by a feedback-re-placed replica pool echoes the re-placed
	// mapping.
	Mapping []int
	// Set and Histogram are populated once State == StateDone (nil for
	// sweep jobs, whose results arrive per point in Points).
	Set       *runner.ShotSet
	Histogram runner.Histogram
	// Points holds the per-point outcomes of a sweep job, in point order.
	Points []PointStatus
	// Makespan is shot 0's makespan in cycles (0 until done; for sweep
	// jobs, point 0 shot 0).
	Makespan int64
	Err      string
}

// PointStatus is one sweep point's outcome. Index is the point's position
// in the submitted sweep — in JobStatus.Points the slice is already in
// index order, but a stream delivers points in completion order, and
// under multiple shot workers that is not submission order.
type PointStatus struct {
	Index     int                `json:"index"`
	Params    map[string]float64 `json:"params"`
	Histogram runner.Histogram   `json:"histogram"`
	Makespan  int64              `json:"makespan_cycles"`
}

// pointStatusOf folds one finished sweep point into its retainable
// snapshot (histogram + makespan; the full shot set is dropped).
func pointStatusOf(p runner.SweepPoint) PointStatus {
	st := PointStatus{Index: p.Index, Params: p.Params, Histogram: p.Set.Histogram()}
	if len(p.Set.Shots) > 0 {
		st.Makespan = int64(p.Set.Shots[0].Result.Makespan)
	}
	return st
}

// Done reports whether the job has reached a terminal state.
func (s JobStatus) Done() bool { return s.State == StateDone || s.State == StateFailed }

// Stats is a point-in-time snapshot of service health, the payload of
// dhisq-serve's /v1/stats.
type Stats struct {
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	// BatchedJobs counts jobs that found warm replicas for their
	// artifact already pooled (no machine construction at all).
	BatchedJobs uint64 `json:"batched_jobs"`
	// Binds counts BindParams patch operations performed on the cached
	// path (one per parameter-bound job, one per sweep point); BindHits
	// counts parameter-bound jobs whose compiled skeleton was served from
	// the artifact cache — the compile the binding layer saved.
	Binds          uint64         `json:"binds"`
	BindHits       uint64         `json:"bind_hits"`
	PooledReplicas int            `json:"pooled_replicas"`
	Cache          artifact.Stats `json:"artifact_cache"`
	// Congestion counters, aggregated across every shot of every
	// completed job. All zero unless jobs ran with the fabric's
	// contention model enabled (network.Config.LinkSerialization > 0).
	// NetStallCycles counts queueing at every link and router port —
	// all traffic, router-originated hops included — matching
	// BENCH_fabric.json's total_stall_cycles, not its narrower
	// controller-charged net_stall_cycles.
	NetStallCycles uint64 `json:"net_total_stall_cycles"`
	NetMaxQueue    int    `json:"net_max_queue"`
	NetMessages    uint64 `json:"net_messages"`
	NetOverflows   uint64 `json:"net_overflows"`
	// Collective-layer counters (network.CongestionStats): operations the
	// fabric's collective layer executed across completed jobs' shots, and
	// the queueing cycles their messages accrued. Ops count even with the
	// contention model disabled; the stall needs finite link bandwidth.
	NetCollectiveOps   uint64 `json:"net_collective_ops"`
	NetCollectiveStall uint64 `json:"net_collective_stall_cycles"`
	// Replacements counts replica-pool groups re-placed via congestion
	// feedback (0 unless Config.ReplaceStallThreshold is set).
	Replacements uint64 `json:"replacements"`
}

// ErrQueueFull is returned by Submit when the bounded queue is at depth.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// poolKey identifies machines that are interchangeable for job
// execution: same compiled artifact AND same runtime configuration. The
// artifact fingerprint only covers compile-relevant inputs; two jobs can
// share binaries yet need different machines (state-vector vs seeded
// backend, event logging, deadline), so those ride along here. Seed is
// deliberately absent — Reset(seed) re-seeds a pooled machine per shot.
type poolKey struct {
	fp        artifact.Fingerprint
	backend   machine.BackendKind // resolved, never BackendAuto
	logEvents bool
	deadline  sim.Time
	// collective is the resolved Config.Collective schedule name. The
	// schedule is runtime configuration — every schedule shares one
	// compiled artifact (keyVersion 6 hashes only the on/off toggle) — but
	// a pooled machine is built with one Cfg, so "ring" and "tree" jobs
	// must not trade replicas.
	collective string
}

type job struct {
	id        string
	req       Request
	spec      runner.Spec
	fp        artifact.Fingerprint
	pk        poolKey
	seed      int64
	placement string // resolved placement policy name (never "")
	schedule  string // resolved schedule policy name (never "")

	trackFeedback bool // aggregate per-link feedback for the re-place loop

	mu       sync.Mutex
	state    State
	cacheHit bool
	batched  bool
	mapping  []int // final qubit→controller mapping (nil = identity)
	set      *runner.ShotSet
	hist     runner.Histogram // computed once at finish, not per poll
	points   []PointStatus    // sweep jobs: per-point outcomes, index order
	// streamed holds sweep points in completion order as they finish —
	// the publication log Stream cursors over while the job still runs.
	// notify is closed and replaced under mu on every publish, so any
	// number of streaming watchers can wait for "something new" without
	// polling and without a Cond (a channel honors context cancellation).
	streamed []PointStatus
	notify   chan struct{}
	net      congestionAgg // sweep jobs: congestion folded at setPoints
	err      error
	done     chan struct{}
}

// publish appends one finished sweep point to the stream log and wakes
// every watcher. Called from runner worker goroutines mid-execution.
func (j *job) publish(ps PointStatus) {
	j.mu.Lock()
	j.streamed = append(j.streamed, ps)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// setPoints folds a finished sweep's per-point shot sets into retainable
// snapshots (histogram + makespan; the full sets are dropped so a
// long-lived daemon's retention bound stays a bound). Fabric congestion
// is aggregated here, before the per-shot data goes away, so sweep jobs
// still move the /v1/stats net_* counters.
func (j *job) setPoints(pts []runner.SweepPoint) {
	out := make([]PointStatus, len(pts))
	agg := congestionAgg{track: j.trackFeedback}
	for i, p := range pts {
		out[i] = pointStatusOf(p)
		agg.add(p.Set)
	}
	j.mu.Lock()
	j.points = out
	j.net = agg
	j.mu.Unlock()
}

// netAgg snapshots the congestion the job aggregated before dropping its
// per-shot data (sweep jobs; zero for everything else).
func (j *job) netAgg() congestionAgg {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.net
}

// setMapping records the final mapping the job's artifact was compiled
// with (the Place pass may have computed it from the policy). Copied:
// the artifact is cached process-wide, and JobStatus hands the slice to
// callers who are free to mutate their snapshot.
func (j *job) setMapping(cp *compiler.Compiled) {
	if cp == nil || cp.Mapping == nil {
		return
	}
	j.mu.Lock()
	j.mapping = append([]int(nil), cp.Mapping...)
	j.mu.Unlock()
}

// Service is the job manager. Construct with New, stop with Close.
type Service struct {
	cfg   Config
	arts  *artifact.Cache // resolved Config.Artifacts (never nil)
	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // completion order, oldest first (retention bound)
	nextID   uint64
	closed   bool
	running  int
	stats    Stats
	pool     *replicaPool
	// feedback tracks aggregated congestion per replica-pool group when
	// Config.ReplaceStallThreshold is set (nil entries never exist; the
	// map stays empty with the loop disabled).
	feedback map[poolKey]*feedbackState

	wg sync.WaitGroup
}

// feedbackState is one replica-pool group's accumulated congestion and,
// once the threshold tripped, the re-placed artifact every later job of
// the group executes with.
type feedbackState struct {
	fb       compiler.Feedback
	replaced bool               // re-place triggered (claims are one-shot)
	artifact *compiler.Compiled // re-placed artifact (nil until swap done)
}

// New starts a service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / 2
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShotWorkers <= 0 {
		cfg.ShotWorkers = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxPooledReplicas <= 0 {
		cfg.MaxPooledReplicas = 4 * cfg.Workers
	}
	if cfg.MaxRetainedJobs <= 0 {
		cfg.MaxRetainedJobs = 4096
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = 4096
	}
	if cfg.Artifacts == nil {
		cfg.Artifacts = artifact.Shared
	}
	s := &Service{
		cfg:      cfg,
		arts:     cfg.Artifacts,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		pool:     newReplicaPool(cfg.MaxPooledReplicas),
		feedback: make(map[poolKey]*feedbackState),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// resolveRequest normalizes a request exactly the way Submit will run
// it: mesh dimensions default via AutoMesh, the machine config via
// DefaultConfig, Request.Placement/Request.Schedule override their Cfg
// counterparts, and the resulting policy names are validated. Shared
// between Submit (admission) and RouteKey (cluster routing) so a shard
// and a router can never disagree about what a request means.
func resolveRequest(req Request) (Request, machine.Config, string, string, error) {
	if req.Circuit == nil {
		return req, machine.Config{}, "", "", fmt.Errorf("service: nil circuit")
	}
	if req.Shots < 1 {
		return req, machine.Config{}, "", "", fmt.Errorf("service: shots %d < 1", req.Shots)
	}
	if req.MeshW <= 0 || req.MeshH <= 0 {
		req.MeshW, req.MeshH = placement.AutoMesh(req.Circuit.NumQubits)
	}
	var cfg machine.Config
	if req.Cfg != nil {
		cfg = *req.Cfg
	} else {
		cfg = machine.DefaultConfig(req.Circuit.NumQubits)
	}
	cfg.Net.MeshW, cfg.Net.MeshH = req.MeshW, req.MeshH
	if req.Placement != "" {
		cfg.Placement = req.Placement
	}
	if req.Schedule != "" {
		cfg.Schedule = req.Schedule
	}
	if req.Collective != "" {
		cfg.Collective = req.Collective
	}
	if req.Chips != 0 {
		cfg.Chips = req.Chips
	}
	if req.EPRLatency != 0 {
		cfg.EPRLatency = req.EPRLatency
	}
	if cfg.Chips < 0 {
		return req, machine.Config{}, "", "", fmt.Errorf("service: negative chip count %d", cfg.Chips)
	}
	if cfg.EPRLatency < 0 {
		return req, machine.Config{}, "", "", fmt.Errorf("service: negative EPR latency %d", cfg.EPRLatency)
	}
	if cfg.Chips > 1 {
		if req.Mapping != nil {
			return req, machine.Config{}, "", "", fmt.Errorf("service: explicit mapping with %d chips unsupported (the chip expansion adds communication qubits; use a placement policy)", cfg.Chips)
		}
		if cfg.Chips > req.Circuit.NumQubits {
			return req, machine.Config{}, "", "", fmt.Errorf("service: %d chips exceed %d qubits (each chip needs at least one data qubit)", cfg.Chips, req.Circuit.NumQubits)
		}
	}
	// The multi-chip expansion appends one communication qubit per chip;
	// grow the mesh here, at admission, exactly the way machine.New would,
	// so the fingerprint this request is admitted and routed under matches
	// the machine it will run on.
	req.MeshW, req.MeshH = cfg.Mesh(req.Circuit.NumQubits)
	cfg.Net.MeshW, cfg.Net.MeshH = req.MeshW, req.MeshH
	// Validate the policies the job will actually compile with — whether
	// they arrived via the request or a caller-supplied Cfg — so unknown
	// names are rejected here, before any work queues.
	resolvedPolicy := cfg.Placement
	if resolvedPolicy == "" {
		resolvedPolicy = placement.Default
	}
	if err := placement.Valid(resolvedPolicy); err != nil {
		return req, machine.Config{}, "", "", err
	}
	resolvedSchedule := cfg.Schedule
	if resolvedSchedule == "" {
		resolvedSchedule = compiler.DefaultSchedule
	}
	if err := compiler.ValidSchedule(resolvedSchedule); err != nil {
		return req, machine.Config{}, "", "", err
	}
	if cfg.Collective != "" {
		if _, err := network.ParseCollSchedule(cfg.Collective); err != nil {
			return req, machine.Config{}, "", "", err
		}
	}
	return req, cfg, resolvedPolicy, resolvedSchedule, nil
}

// RouteKey is the fingerprint cluster routing shards on: always the
// bind-invariant structural key, so every binding of one parameterized
// family — and the unparameterized circuit itself — routes to the same
// shard, landing on that shard's warm skeleton and replica pool. It is a
// pure function of the request (no service state, no seeds), so every
// node of a cluster computes the same key for the same submission.
func RouteKey(req Request) (artifact.Fingerprint, error) {
	req, cfg, _, _, err := resolveRequest(req)
	if err != nil {
		return artifact.Fingerprint{}, err
	}
	return machine.StructuralKeyFor(req.Circuit, req.Mapping, cfg)
}

// Submit validates and enqueues a job, returning its ID immediately. The
// queue is bounded: a full queue rejects with ErrQueueFull rather than
// blocking the caller (admission control, not backpressure-by-hanging).
func (s *Service) Submit(req Request) (string, error) {
	req, cfg, resolvedPolicy, resolvedSchedule, err := resolveRequest(req)
	if err != nil {
		return "", err
	}
	// Jobs compile through this service's artifact cache (unless the
	// caller pinned one in req.Cfg): the field rides the machine config
	// into runner.Build without touching any fingerprint.
	if cfg.Artifacts == nil {
		cfg.Artifacts = s.arts
	}
	if len(req.Sweep) > s.cfg.MaxSweepPoints {
		return "", fmt.Errorf("service: sweep has %d points, limit %d (split it into multiple jobs — they share the compiled skeleton anyway)",
			len(req.Sweep), s.cfg.MaxSweepPoints)
	}
	if err := validateParams(req); err != nil {
		return "", err
	}

	// Fingerprint at admission, outside the service lock: KeyFor hashes
	// every circuit op, so holding s.mu here would serialize all
	// admission and every Get/Wait/Stats behind it. The key is what
	// batches this job with others compiling the same program; KeyFor
	// needs only the topology, so admission never builds a machine. The
	// resolved backend joins the pool key (execution-relevant but not
	// compile-relevant). Neither depends on the seed assigned below.
	// Parameter-bound jobs fingerprint on the bind-invariant structural
	// key instead, so every binding of one skeleton — and every point of
	// a sweep — shares one artifact and one replica pool.
	keyFn := machine.KeyFor
	if req.bindJob() {
		keyFn = machine.StructuralKeyFor
	}
	fp, err := keyFn(req.Circuit, req.Mapping, cfg)
	if err != nil {
		return "", err
	}
	j := &job{
		req:       req,
		fp:        fp,
		placement: resolvedPolicy,
		schedule:  resolvedSchedule,
		pk: poolKey{
			fp: fp, backend: machine.ResolveBackend(req.Circuit, cfg.Backend),
			logEvents: cfg.LogEvents, deadline: cfg.Deadline,
			collective: cfg.Collective,
		},
		state:  StateQueued,
		done:   make(chan struct{}),
		notify: make(chan struct{}),
		// Per-link feedback is only worth aggregating when the re-place
		// loop can consume it.
		trackFeedback: s.cfg.ReplaceStallThreshold > 0,
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrClosed
	}
	n := s.nextID
	s.nextID++
	seed := req.Seed
	if seed == 0 {
		seed = machine.DeriveSeed(s.cfg.Seed, int(n))
	}
	cfg.Seed = seed
	j.id = fmt.Sprintf("job-%06d", n)
	j.seed = seed
	j.spec = runner.Spec{
		Circuit: req.Circuit, MeshW: req.MeshW, MeshH: req.MeshH,
		Mapping: req.Mapping, Cfg: cfg,
	}
	select {
	case s.queue <- j:
	default:
		s.nextID = n // roll the ID back so rejects don't burn seeds
		s.stats.Rejected++
		s.mu.Unlock()
		return "", ErrQueueFull
	}
	s.jobs[j.id] = j
	s.stats.Submitted++
	s.mu.Unlock()
	return j.id, nil
}

// validateParams rejects malformed parameter bindings at admission,
// before any work queues: a bind/sweep job must supply exactly the
// circuit's symbolic parameter set (NaN-free) at every point, and a plain
// job must not submit an unbound skeleton — its table angles would
// silently execute as zero.
func validateParams(req Request) error {
	if req.Params != nil && len(req.Sweep) > 0 {
		return fmt.Errorf("service: give params or sweep, not both")
	}
	if !req.bindJob() {
		if ub := req.Circuit.UnboundParams(); len(ub) > 0 {
			return fmt.Errorf("service: circuit has unbound parameters %v: supply params or sweep", ub)
		}
		return nil
	}
	syms := req.Circuit.Params()
	check := func(where string, vals map[string]float64) error {
		if len(vals) != len(syms) {
			return fmt.Errorf("service: %s binds %d parameters, circuit has %d (%v)",
				where, len(vals), len(syms), syms)
		}
		for _, name := range syms {
			v, ok := vals[name]
			if !ok {
				return fmt.Errorf("service: %s missing parameter %q", where, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("service: %s parameter %q is %v (angles must be finite)", where, name, v)
			}
		}
		return nil
	}
	if req.Params != nil {
		return check("params", req.Params)
	}
	for i, pt := range req.Sweep {
		if err := check(fmt.Sprintf("sweep point %d", i), pt); err != nil {
			return err
		}
	}
	return nil
}

// Get snapshots a job by ID.
func (s *Service) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot (the "stream the result" path; Get is the poll path).
func (s *Service) Wait(id string) (JobStatus, bool) {
	return s.WaitContext(context.Background(), id)
}

// WaitContext is Wait with a deadline: it blocks until the job reaches a
// terminal state or the context is done, whichever comes first, and
// returns the job's snapshot at that moment. A cancelled context does not
// fail the lookup — the boolean still reports whether the job exists, and
// the caller distinguishes "finished" from "gave up waiting" by
// JobStatus.Done(). An already-cancelled context degrades to Get.
func (s *Service) WaitContext(ctx context.Context, id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return j.status(), true
}

// Stats snapshots service counters plus the shared artifact-cache stats.
// Every s.stats mutation — admission, rejection, the worker's
// completion/failure/bind accounting, and congestion folding — happens
// under s.mu, so the snapshot is internally consistent (Completed never
// exceeds Submitted) no matter how many readers poll under load.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.Running = s.running
	s.mu.Unlock()
	st.PooledReplicas = s.pool.size()
	st.Cache = s.arts.Stats()
	return st
}

// Close stops admission, drains queued jobs to failure, and waits for
// running jobs to finish.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		if s.closed {
			// Drain: jobs admitted before Close but not started fail
			// deterministically instead of hanging their waiters.
			s.stats.Failed++
			s.retire(j.id)
			s.mu.Unlock()
			j.finish(nil, fmt.Errorf("service: shut down before job started"))
			continue
		}
		s.running++
		s.mu.Unlock()
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()

		set, cacheHit, batched, err := s.execute(j)
		j.mu.Lock()
		j.cacheHit, j.batched = cacheHit, batched
		j.mu.Unlock()

		// Count the job before finish wakes its waiters, so a caller that
		// reads Stats after Wait sees this job in every counter.
		s.mu.Lock()
		s.running--
		var agg congestionAgg
		if err != nil {
			s.stats.Failed++
		} else {
			s.stats.Completed++
			if batched {
				s.stats.BatchedJobs++
			}
			if j.req.bindJob() {
				n := uint64(1)
				if len(j.req.Sweep) > 0 {
					n = uint64(len(j.req.Sweep))
				}
				s.stats.Binds += n
				if cacheHit {
					s.stats.BindHits++
				}
			}
			agg = j.netAgg() // sweep jobs folded theirs at setPoints
			agg.track = j.trackFeedback
			if set != nil {
				agg.add(set)
			}
			s.foldCongestion(agg)
		}
		s.retire(j.id)
		s.mu.Unlock()
		j.finish(set, err)
		if err == nil {
			s.maybeReplace(j, agg.fb)
		}
	}
}

// netDigest is one shot's fabric-congestion summary. Collective counters
// fold even when the contention model is disabled — the collective layer
// runs (and counts operations) either way.
type netDigest struct {
	stall, messages, overflows uint64
	collOps, collStall         uint64
	maxQueue                   int
}

// digestOf extracts a shot's congestion digest from its result.
func digestOf(res machine.Result) netDigest {
	net := res.Net
	d := netDigest{
		collOps:   net.CollectiveOps,
		collStall: uint64(net.CollectiveStall),
	}
	if !net.Enabled {
		return d
	}
	d.stall = uint64(net.TotalStall())
	d.messages = net.LinkMessages + net.PortMessages
	d.overflows = net.LinkOverflows + net.PortOverflows
	d.maxQueue = net.MaxQueue()
	return d
}

// merge combines two digests (sums and a max, so any fold order agrees).
func (d netDigest) merge(e netDigest) netDigest {
	d.stall += e.stall
	d.messages += e.messages
	d.overflows += e.overflows
	d.collOps += e.collOps
	d.collStall += e.collStall
	if e.maxQueue > d.maxQueue {
		d.maxQueue = e.maxQueue
	}
	return d
}

// congestionAgg accumulates per-shot fabric congestion so it can outlive
// the shot sets it came from (sweep jobs drop theirs at setPoints). With
// track set it additionally folds the per-link attribution into a
// compiler.Feedback for the re-place loop; aggregation is commutative
// either way, so the result is independent of shot completion order.
type congestionAgg struct {
	net   netDigest
	track bool
	fb    compiler.Feedback
}

func (a *congestionAgg) add(set *runner.ShotSet) {
	for _, shot := range set.Shots {
		a.net = a.net.merge(digestOf(shot.Result))
		if a.track {
			a.fb.Absorb(shot.Result.Net, shot.Result.RouterUtilization)
		}
	}
}

// foldCongestion merges aggregated congestion into the service stats.
// Called with s.mu held.
func (s *Service) foldCongestion(a congestionAgg) {
	s.stats.NetStallCycles += a.net.stall
	s.stats.NetMessages += a.net.messages
	s.stats.NetOverflows += a.net.overflows
	s.stats.NetCollectiveOps += a.net.collOps
	s.stats.NetCollectiveStall += a.net.collStall
	if a.net.maxQueue > s.stats.NetMaxQueue {
		s.stats.NetMaxQueue = a.net.maxQueue
	}
}

// maybeReplace folds a finished job's feedback into its pool group and,
// once the group's aggregated stall crosses the configured threshold,
// re-places it: search for a measurably better mapping (machine.RePlace),
// recompile under it, and swap the group's replicas. Runs on the worker
// goroutine outside s.mu — the search compiles and probes.
func (s *Service) maybeReplace(j *job, fb compiler.Feedback) {
	if !j.trackFeedback {
		return
	}
	s.mu.Lock()
	fs := s.feedback[j.pk]
	if fs == nil {
		fs = &feedbackState{}
		s.feedback[j.pk] = fs
	}
	fs.fb.Merge(&fb)
	if fs.replaced || uint64(fs.fb.TotalStall) < s.cfg.ReplaceStallThreshold {
		s.mu.Unlock()
		return
	}
	fs.replaced = true // one-shot claim: a group is re-placed at most once
	snapshot := fs.fb
	s.mu.Unlock()

	cp, err := s.rePlace(j, &snapshot)
	if err != nil || cp == nil {
		return // the search kept the incumbent (or failed): nothing to swap
	}
	s.mu.Lock()
	fs.artifact = cp
	s.stats.Replacements++
	s.mu.Unlock()
	// Drop the stale warm replicas; the group's next job rebuilds from the
	// re-placed artifact under the unchanged pool key, so a sweep family
	// keeps its bind cache and its batching.
	s.pool.drop(j.pk)
}

// rePlace computes the re-placed artifact for j's pool group: probe-search
// a mapping with lower measured fabric stall under the accumulated
// feedback, then compile the job's circuit (the unbound skeleton, for bind
// jobs) with it. Returns nil when the search kept the incumbent mapping.
// The re-placed artifact caches under its own fingerprint — the original
// entry is never overwritten, so the content-addressed cache stays honest.
func (s *Service) rePlace(j *job, fb *compiler.Feedback) (*compiler.Compiled, error) {
	probeCirc := j.req.Circuit
	if j.req.bindJob() {
		// Probes need a runnable circuit; the first binding of the family
		// is the deterministic stand-in for its traffic.
		params := j.req.Params
		if len(j.req.Sweep) > 0 {
			params = j.req.Sweep[0]
		}
		bound, err := probeCirc.Bind(params)
		if err != nil {
			return nil, err
		}
		probeCirc = bound
	}
	j.mu.Lock()
	prior := append([]int(nil), j.mapping...) // nil stays nil (= identity)
	j.mu.Unlock()
	cfg := j.spec.Cfg
	newMap, _, err := machine.RePlace(probeCirc, cfg, prior, fb)
	if err != nil {
		return nil, err
	}
	if sameMapping(newMap, prior) {
		return nil, nil
	}
	m, err := machine.NewForCircuit(j.req.Circuit, j.req.MeshW, j.req.MeshH, cfg)
	if err != nil {
		return nil, err
	}
	if j.req.bindJob() {
		return m.CompileSkeleton(j.req.Circuit, newMap)
	}
	return m.Compile(j.req.Circuit, newMap)
}

// replacedArtifact returns the re-placed artifact for a pool group (nil
// when the group was never re-placed).
func (s *Service) replacedArtifact(pk poolKey) *compiler.Compiled {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.feedback[pk]; fs != nil {
		return fs.artifact
	}
	return nil
}

// sameMapping compares a mapping against a prior one, treating a nil
// prior as the identity.
func sameMapping(m, prior []int) bool {
	if m == nil {
		return prior == nil
	}
	for q, c := range m {
		want := q
		if prior != nil {
			if q >= len(prior) {
				return false
			}
			want = prior[q]
		}
		if c != want {
			return false
		}
	}
	return prior == nil || len(m) == len(prior)
}

// retire records a finished job and forgets the oldest-finished beyond
// the retention bound. Called with s.mu held. A waiter that already
// holds the *job keeps it alive until it reads the status; only the
// service's own reference is dropped.
func (s *Service) retire(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.MaxRetainedJobs {
		oldest := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, oldest)
	}
}

// execute runs one job: check out (or build) the replicas for its
// artifact, fan the shots out with the runner's deterministic merge, and
// return the replicas to the pool for the next job sharing the artifact.
// Every job resolves its artifact through the shared cache exactly once,
// so the hit/miss counters reflect per-job artifact reuse even when the
// replica pool made the lookup unnecessary for execution.
func (s *Service) execute(j *job) (set *runner.ShotSet, cacheHit, batched bool, err error) {
	if j.req.bindJob() {
		return s.executeBind(j)
	}
	want := s.cfg.ShotWorkers
	if want > j.req.Shots {
		want = j.req.Shots
	}
	machines := s.pool.checkout(j.pk, want)
	batched = len(machines) > 0

	// Resolve the artifact through the shared cache: a present entry
	// counts one hit per job (and stays MRU while its replicas are
	// hot); an absent entry counts nothing here — if replicas must be
	// built, the first Build's GetOrCompile charges the miss, so misses
	// always equal actual compiles.
	var cp *compiler.Compiled
	cp, cacheHit = s.arts.Get(j.fp)
	if ov := s.replacedArtifact(j.pk); ov != nil {
		// The group was re-placed: run from the swapped artifact (a hit —
		// nothing compiles). Replicas pooled before the swap still hold the
		// old program; drop them rather than run the stale placement.
		cp, cacheHit = ov, true
		kept := machines[:0]
		for _, m := range machines {
			if m.Loaded() == ov {
				kept = append(kept, m)
			}
		}
		machines = kept
		batched = len(machines) > 0
	}
	for len(machines) < want {
		m, built, buildErr := runner.Build(j.spec, cp)
		if buildErr != nil {
			s.pool.checkin(j.pk, machines)
			return nil, false, false, buildErr
		}
		cp = built
		machines = append(machines, m)
	}
	// Echo the final mapping off the loaded artifact — it is there even
	// when every replica came warm from the pool and the cache probe
	// missed (an evicted artifact can outlive its cache entry in the pool).
	j.setMapping(machines[0].Loaded())

	set, err = runner.RunOn(machines, j.seed, j.req.Shots, j.req.Circuit.NumBits)
	s.pool.checkin(j.pk, machines)
	if err != nil {
		return nil, cacheHit, batched, err
	}
	return set, cacheHit, batched, nil
}

// executeBind runs a parameter-bound job: resolve the compiled *skeleton*
// through the shared cache under the structural fingerprint, patch it with
// BindParams (per point for sweeps), and run on pooled replicas. Replicas
// pool under the structural key, so a 1000-point sweep — or 1000 separate
// single-binding jobs — compiles once and reuses the same warm machines;
// only the cheap bind+load is per point.
func (s *Service) executeBind(j *job) (set *runner.ShotSet, cacheHit, batched bool, err error) {
	numBits := j.req.Circuit.NumBits
	want := s.cfg.ShotWorkers
	if len(j.req.Sweep) > 0 {
		// Sweeps fan points (not shots) across replicas; each point's
		// shots run on one machine.
		if want > len(j.req.Sweep) {
			want = len(j.req.Sweep)
		}
	} else if want > j.req.Shots {
		want = j.req.Shots
	}
	if want < 1 {
		want = 1
	}
	machines := s.pool.checkout(j.pk, want)
	batched = len(machines) > 0

	var skel *compiler.Compiled
	skel, cacheHit = s.arts.Get(j.fp)
	for len(machines) < want {
		m, built, buildErr := runner.BuildSkeleton(j.spec, skel)
		if buildErr != nil {
			s.pool.checkin(j.pk, machines)
			return nil, false, false, buildErr
		}
		skel = built
		machines = append(machines, m)
	}
	if ov := s.replacedArtifact(j.pk); ov != nil {
		// The group was re-placed: bind from the swapped skeleton. Pooled
		// replicas are harmless here — the bind path re-Loads the bound
		// program onto every machine before running, so whatever they held
		// is overwritten.
		skel, cacheHit = ov, true
	}
	if skel == nil {
		// Every replica came warm from the pool and the cache entry was
		// evicted: the loaded artifact is a previous binding of the same
		// skeleton, and its parameter slots survive re-binding.
		skel = machines[0].Loaded()
	}
	j.setMapping(skel)

	if len(j.req.Sweep) > 0 {
		// The observer runs on the runner's worker goroutines: each point
		// is published to streaming watchers the moment it finishes, while
		// later points are still executing.
		pts, runErr := runner.RunSweepOn(machines, skel, j.req.Sweep, j.seed, j.req.Shots, numBits, func(p runner.SweepPoint) {
			j.publish(pointStatusOf(p))
		})
		s.pool.checkin(j.pk, machines)
		if runErr != nil {
			return nil, cacheHit, batched, runErr
		}
		j.setPoints(pts)
		return nil, cacheHit, batched, nil
	}

	bound, bindErr := skel.BindParams(j.req.Params)
	if bindErr != nil {
		s.pool.checkin(j.pk, machines)
		return nil, cacheHit, batched, bindErr
	}
	for _, m := range machines {
		if loadErr := m.Load(bound); loadErr != nil {
			s.pool.checkin(j.pk, machines)
			return nil, cacheHit, batched, loadErr
		}
	}
	set, err = runner.RunOn(machines, j.seed, j.req.Shots, numBits)
	s.pool.checkin(j.pk, machines)
	return set, cacheHit, batched, err
}

func (j *job) finish(set *runner.ShotSet, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.err = err
	} else {
		j.state = StateDone
		if set != nil { // sweep jobs deliver per-point results instead
			j.set = set
			j.hist = set.Histogram()
		}
	}
	j.mu.Unlock()
	close(j.done)
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Shots: j.req.Shots, Seed: j.seed,
		Fingerprint: j.fp.String(), CacheHit: j.cacheHit, Batched: j.batched,
		MeshW: j.req.MeshW, MeshH: j.req.MeshH,
		Placement: j.placement, Schedule: j.schedule, Mapping: j.mapping,
		Chips: j.spec.Cfg.Chips,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	if j.set != nil {
		st.Set = j.set
		st.Histogram = j.hist
		if len(j.set.Shots) > 0 {
			st.Makespan = int64(j.set.Shots[0].Result.Makespan)
		}
		for _, shot := range j.set.Shots {
			st.EPRPairs += shot.Result.EPRPairs
		}
	}
	if j.points != nil {
		st.Points = j.points
		st.Makespan = j.points[0].Makespan
	}
	return st
}

// replicaPool keeps loaded machines warm, grouped by artifact
// fingerprint, bounded by a global replica budget with LRU group
// eviction. Checkout removes machines from the pool (a machine is never
// shared by two running jobs); checkin returns them.
type replicaPool struct {
	mu     sync.Mutex
	budget int
	groups map[poolKey][]*machine.Machine
	order  []poolKey // front = most recently used
	total  int
}

func newReplicaPool(budget int) *replicaPool {
	return &replicaPool{budget: budget, groups: make(map[poolKey][]*machine.Machine)}
}

func (p *replicaPool) touch(fp poolKey) {
	for i, f := range p.order {
		if f == fp {
			copy(p.order[1:i+1], p.order[:i])
			p.order[0] = fp
			return
		}
	}
	p.order = append([]poolKey{fp}, p.order...)
}

// checkout takes up to want machines pooled for fp.
func (p *replicaPool) checkout(fp poolKey, want int) []*machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[fp]
	if len(g) == 0 {
		return nil
	}
	n := want
	if n > len(g) {
		n = len(g)
	}
	// Copy out: the truncated group keeps its backing array, so handing
	// the caller a sub-slice would let a later checkin append into the
	// very machines the caller is still running on.
	out := make([]*machine.Machine, n)
	copy(out, g[len(g)-n:])
	for i := len(g) - n; i < len(g); i++ {
		g[i] = nil
	}
	p.groups[fp] = g[:len(g)-n]
	p.total -= n
	p.touch(fp)
	return out
}

// checkin returns machines to fp's group, evicting least recently used
// groups if the global budget is exceeded.
func (p *replicaPool) checkin(fp poolKey, machines []*machine.Machine) {
	if len(machines) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.groups[fp] = append(p.groups[fp], machines...)
	p.total += len(machines)
	p.touch(fp)
	for p.total > p.budget && len(p.order) > 0 {
		victim := p.order[len(p.order)-1]
		if victim == fp && len(p.order) == 1 {
			// Only the active group remains: trim it instead, nil-ing the
			// dropped slots so the backing array releases the machines.
			g := p.groups[fp]
			drop := p.total - p.budget
			if drop > len(g) {
				drop = len(g)
			}
			for i := len(g) - drop; i < len(g); i++ {
				g[i] = nil
			}
			p.groups[fp] = g[:len(g)-drop]
			p.total -= drop
			break
		}
		p.total -= len(p.groups[victim])
		delete(p.groups, victim)
		p.order = p.order[:len(p.order)-1]
	}
}

// drop discards fp's pooled group: its machines are loaded with an
// artifact the re-place path just superseded, and running them would mean
// running the old placement.
func (p *replicaPool) drop(fp poolKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[fp]
	if !ok {
		return
	}
	p.total -= len(g)
	delete(p.groups, fp)
	for i, f := range p.order {
		if f == fp {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

func (p *replicaPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}
