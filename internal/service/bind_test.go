package service

import (
	"math"
	"testing"

	"dhisq/internal/artifact"
	"dhisq/internal/circuit"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/workloads"
)

func submitWait(t *testing.T, svc *Service, req Request) JobStatus {
	t.Helper()
	id, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := svc.Wait(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	if st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", id, st.State, st.Err)
	}
	return st
}

// fullCompileJob is the full-compile oracle for the binding layer: it
// binds c at params and runs the bound circuit as a plain job on a fresh
// service over an empty private cache, so the compile is paid in full and
// nothing is pooled.
func fullCompileJob(t *testing.T, c *circuit.Circuit, params map[string]float64, shots int, seed int64, cfg *machine.Config) JobStatus {
	t.Helper()
	bc, err := c.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, Artifacts: artifact.New(1)})
	defer svc.Close()
	st := submitWait(t, svc, Request{Circuit: bc, Shots: shots, Seed: seed, Cfg: cfg})
	if misses := svc.Stats().Cache.Misses; misses != 1 {
		t.Fatalf("full-compile oracle compiled %d times, want 1", misses)
	}
	return st
}

// TestParamsJobMatchesFreshCompile: a parameter-bound job served off the
// cached skeleton is byte-identical to the same binding compiled in full,
// and repeat bindings compile nothing.
func TestParamsJobMatchesFreshCompile(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	p1 := workloads.VQEAnsatzPoint(6, 1, 1)
	p2 := workloads.VQEAnsatzPoint(6, 1, 2)

	warm1 := submitWait(t, svc, Request{Circuit: c, Shots: 10, Seed: 5, Params: p1})
	before := artifact.Shared.Stats()
	warm2 := submitWait(t, svc, Request{Circuit: c, Shots: 10, Seed: 5, Params: p2})
	after := artifact.Shared.Stats()
	if d := after.Misses - before.Misses; d != 0 {
		t.Fatalf("second binding compiled %d times, want 0", d)
	}
	if !warm2.CacheHit {
		t.Fatal("second binding missed the skeleton cache")
	}
	fresh1 := fullCompileJob(t, c, p1, 10, 5, nil)
	if warm1.Histogram.String() != fresh1.Histogram.String() {
		t.Fatalf("bind path broke determinism:\nwarm:\n%s\nfresh:\n%s", warm1.Histogram, fresh1.Histogram)
	}
	if warm1.Histogram.String() == warm2.Histogram.String() {
		t.Log("note: different bindings produced identical histograms (possible but unlikely)")
	}
	st := svc.Stats()
	if st.Binds < 2 || st.BindHits < 1 {
		t.Fatalf("bind counters not accounted: binds=%d bind_hits=%d", st.Binds, st.BindHits)
	}
}

// TestSweepJob: one job runs every point against one compiled skeleton;
// point k matches a separate params job seeded with DeriveSeed(jobSeed, k).
func TestSweepJob(t *testing.T) {
	svc := New(Config{Workers: 1, ShotWorkers: 2})
	defer svc.Close()
	c := workloads.VQEAnsatz(6, 1)
	points := []map[string]float64{
		workloads.VQEAnsatzPoint(6, 1, 0),
		workloads.VQEAnsatzPoint(6, 1, 1),
		workloads.VQEAnsatzPoint(6, 1, 2),
	}
	before := artifact.Shared.Stats()
	st := submitWait(t, svc, Request{Circuit: c, Shots: 6, Seed: 9, Sweep: points})
	after := artifact.Shared.Stats()
	if d := after.Misses - before.Misses; d > 1 {
		t.Fatalf("sweep compiled %d times, want at most 1", d)
	}
	if st.Set != nil || st.Histogram != nil {
		t.Fatal("sweep job returned a flat shot set")
	}
	if len(st.Points) != len(points) {
		t.Fatalf("got %d points, want %d", len(st.Points), len(points))
	}
	if st.Makespan == 0 || st.Makespan != st.Points[0].Makespan {
		t.Fatalf("sweep makespan not echoed from point 0: %d", st.Makespan)
	}
	for k, pt := range st.Points {
		single := submitWait(t, svc, Request{
			Circuit: c, Shots: 6, Seed: machine.DeriveSeed(9, k), Params: points[k],
		})
		if pt.Histogram.String() != single.Histogram.String() {
			t.Fatalf("sweep point %d differs from the equivalent single job:\n%s\nvs\n%s",
				k, pt.Histogram, single.Histogram)
		}
	}
}

// TestBindAdmissionErrors: malformed parameter submissions are rejected
// before any work queues.
func TestBindAdmissionErrors(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(4, 1)
	full := workloads.VQEAnsatzPoint(4, 1, 0)
	cases := map[string]Request{
		"unbound-no-params": {Circuit: c, Shots: 1},
		"params-and-sweep":  {Circuit: c, Shots: 1, Params: full, Sweep: []map[string]float64{full}},
		"missing-param":     {Circuit: c, Shots: 1, Params: map[string]float64{"t0_0": 1}},
		"unknown-param": {Circuit: workloads.GHZ(4), Shots: 1,
			Params: map[string]float64{"bogus": 1}},
		"nan-param": {Circuit: c, Shots: 1, Params: func() map[string]float64 {
			m := map[string]float64{}
			for k, v := range full {
				m[k] = v
			}
			m["t0_0"] = math.NaN()
			return m
		}()},
		"bad-sweep-point": {Circuit: c, Shots: 1,
			Sweep: []map[string]float64{full, {"t0_0": 1}}},
	}
	for name, req := range cases {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty params map on a concrete circuit is legal (bind no-op).
	submitWait(t, svc, Request{Circuit: workloads.GHZ(4), Shots: 2, Seed: 3,
		Params: map[string]float64{}})
}

// TestFreshSweepMatchesCachedSweep: the full-compile oracle — each point
// bound and compiled in full on a fresh service, seeded like sweep point k
// — must agree point for point with the bind-patched path.
func TestFreshSweepMatchesCachedSweep(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	c := workloads.VQEAnsatz(5, 1)
	points := []map[string]float64{
		workloads.VQEAnsatzPoint(5, 1, 0),
		workloads.VQEAnsatzPoint(5, 1, 4),
	}
	warm := submitWait(t, svc, Request{Circuit: c, Shots: 5, Seed: 13, Sweep: points})
	if len(warm.Points) != len(points) {
		t.Fatalf("got %d points, want %d", len(warm.Points), len(points))
	}
	for k, pt := range warm.Points {
		fresh := fullCompileJob(t, c, points[k], 5, machine.DeriveSeed(13, k), nil)
		if pt.Histogram.String() != fresh.Histogram.String() {
			t.Fatalf("point %d: bind path %v vs fresh %v", k, pt.Histogram, fresh.Histogram)
		}
		if pt.Makespan != fresh.Makespan {
			t.Fatalf("point %d makespans differ: %d vs %d", k, pt.Makespan, fresh.Makespan)
		}
	}
}

// TestSweepCongestionAccounted: a sweep under finite link bandwidth must
// move every /v1/stats net_* counter by exactly what the equivalent single
// Params jobs move, even though its per-shot sets are dropped after the
// per-point snapshots are taken — a fold that dropped or double-counted a
// point or a shot would show here.
func TestSweepCongestionAccounted(t *testing.T) {
	c := workloads.VQEAnsatz(6, 1)
	cfg := machine.DefaultConfig(6)
	cfg.Net.Topology = network.TopoTree
	cfg.Net.LinkSerialization = 4
	cfg.Collective = "auto"
	points := []map[string]float64{
		workloads.VQEAnsatzPoint(6, 1, 0),
		workloads.VQEAnsatzPoint(6, 1, 1),
		workloads.VQEAnsatzPoint(6, 1, 2),
	}
	const shots, seed = 4, 3
	net := func(st Stats) [6]uint64 {
		return [6]uint64{st.NetStallCycles, st.NetMessages, st.NetOverflows,
			st.NetCollectiveOps, st.NetCollectiveStall, uint64(st.NetMaxQueue)}
	}

	sweep := New(Config{Workers: 1, ShotWorkers: 2})
	defer sweep.Close()
	submitWait(t, sweep, Request{Circuit: c, Shots: shots, Seed: seed, Cfg: &cfg, Sweep: points})
	got := net(sweep.Stats())

	// The single jobs keep their shot sets, so their counters are checked
	// against the per-shot congestion too — a fold fault shared by both
	// paths cannot hide.
	singles := New(Config{Workers: 1})
	defer singles.Close()
	var direct [6]uint64
	for k, p := range points {
		st := submitWait(t, singles, Request{
			Circuit: c, Shots: shots, Seed: machine.DeriveSeed(seed, k), Cfg: &cfg, Params: p,
		})
		for _, shot := range st.Set.Shots {
			n := shot.Result.Net
			direct[0] += uint64(n.TotalStall())
			direct[1] += n.LinkMessages + n.PortMessages
			direct[2] += n.LinkOverflows + n.PortOverflows
			direct[3] += n.CollectiveOps
			direct[4] += uint64(n.CollectiveStall)
			direct[5] = max(direct[5], uint64(n.MaxQueue()))
		}
	}
	want := net(singles.Stats())
	if got != want || want != direct {
		t.Fatalf("net counters (stall, messages, overflows, coll ops, coll stall, max queue): "+
			"sweep %v, single jobs %v, per-shot sum %v", got, want, direct)
	}
	if want[0] == 0 || want[1] == 0 || want[3] == 0 {
		t.Fatalf("workload exercises no congestion or collective traffic: %v", want)
	}
}

// TestSweepPointCap: the bounded queue counts jobs, so a single sweep
// must not smuggle unbounded work past admission.
func TestSweepPointCap(t *testing.T) {
	svc := New(Config{Workers: 1, MaxSweepPoints: 3})
	defer svc.Close()
	c := workloads.VQEAnsatz(4, 1)
	pts := make([]map[string]float64, 4)
	for k := range pts {
		pts[k] = workloads.VQEAnsatzPoint(4, 1, k)
	}
	if _, err := svc.Submit(Request{Circuit: c, Shots: 1, Sweep: pts}); err == nil {
		t.Fatal("over-limit sweep accepted")
	}
	submitWait(t, svc, Request{Circuit: c, Shots: 1, Seed: 2, Sweep: pts[:3]})
}
