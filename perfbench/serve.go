package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhisq/internal/circuit"
	"dhisq/internal/workloads"
)

const (
	// warmRate is serve-warm's fixed open-loop arrival rate (jobs/s):
	// about a third of the closed-loop capacity measured on the reference
	// machine (2-vCPU Xeon, 228 to 277 jobs/s over seven ten-seed sets,
	// see README.md). At that load the queue stays short, so the latency
	// shows the daemon's time per job rather than queue build-up.
	warmRate = 80.0
	// warmCycles is how many open-loop/closed-loop cycles serve-warm's
	// window is cut into.
	warmCycles = 4
	// warmOpenShare is the share of each cycle driven open loop; the
	// closed-loop capacity phase takes the rest.
	warmOpenShare = 0.75
	// warmClosedJobs is the job count of each closed-loop phase: about a
	// sixth of a 50 s run's cycle at the measured capacity. A fixed
	// count, not a fixed time, keeps the daemon's retained jobs — and so
	// its peak RSS — the same in every run.
	warmClosedJobs = 500
	// loadClients is the load generator's goroutine and connection
	// count (nproc of the reference machine).
	loadClients = 2
	// rerunSample is how many completed jobs are re-run in process after
	// timing and compared byte for byte.
	rerunSample = 16
	// coldJobsPerSecond is how many distinct serve-cold families the run
	// generates per measured second. It must exceed the closed-loop
	// capacity — 263 to 308 jobs/s in three runs on the reference
	// machine — and a run that serves every family fails its traffic
	// check.
	coldJobsPerSecond = 450
	// coldMakespanJobs is how many leading serve-cold jobs
	// sim_makespan_cycles sums over.
	coldMakespanJobs = 160
	// coldReplayJobs is how many leading serve-cold jobs the traced run
	// replays in process.
	coldReplayJobs = 200
)

// jobRecord is one job's client-side timeline and terminal snapshot.
type jobRecord struct {
	idx                  int
	due, submitted, done time.Time
	submitDur, resultDur time.Duration
	res                  jobResult
	err                  error
}

// runJob submits a job and waits for its terminal result, in spans
// when tr is non-nil.
func runJob(tr *tracer, c *client, j job, rec *jobRecord) {
	root := tr.begin("client.job", 0, rec.idx)
	defer tr.end(root)
	rec.submitted = time.Now()
	id := tr.begin("http.submit", root, rec.idx)
	jid, err := c.submit(j.Req)
	tr.end(id)
	accepted := time.Now()
	rec.submitDur = accepted.Sub(rec.submitted)
	if err == nil {
		id = tr.begin("http.result", root, rec.idx)
		rec.res, err = c.result(jid, j.Stream)
		tr.end(id)
	}
	rec.done = time.Now()
	rec.resultDur = rec.done.Sub(accepted)
	rec.err = err
}

// openLoop submits jobs at a fixed rate for dur, taking them in list
// order from offset, each from its due time, with loadClients
// goroutines; a job whose due time passes while both are busy goes out
// late, and its latency still counts from the due time.
func openLoop(tr *tracer, c *client, jobs []job, offset int, rate float64, dur time.Duration) []jobRecord {
	n := min(openJobs(rate, dur), len(jobs)-offset)
	recs := make([]jobRecord, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < loadClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rec := &recs[i]
				rec.idx = offset + i
				rec.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(rec.due))
				runJob(tr, c, jobs[rec.idx], rec)
			}
		}()
	}
	wg.Wait()
	return recs
}

// openJobs is how many jobs an open loop at rate submits in dur.
func openJobs(rate float64, dur time.Duration) int { return int(math.Ceil(dur.Seconds() * rate)) }

// rateBucket is the width of the windows closed-loop rates are counted in.
const rateBucket = 250 * time.Millisecond

// bucketRates counts, per rateBucket window after start, the jobs and the
// shots that completed in it, and returns the rate of each per full
// window: the median over windows lets a short stall of the machine move
// one window, not the figure.
func bucketRates(jobs []job, recs []jobRecord, start time.Time) (jobsPerS, shotsPerS []float64) {
	for _, r := range recs {
		b := int(r.done.Sub(start) / rateBucket)
		for len(jobsPerS) <= b {
			jobsPerS, shotsPerS = append(jobsPerS, 0), append(shotsPerS, 0)
		}
		jobsPerS[b] += 1 / rateBucket.Seconds()
		shotsPerS[b] += float64(shotsOf(jobs[r.idx])) / rateBucket.Seconds()
	}
	if len(jobsPerS) > 1 {
		jobsPerS, shotsPerS = jobsPerS[:len(jobsPerS)-1], shotsPerS[:len(shotsPerS)-1] // the last window is partial
	}
	return jobsPerS, shotsPerS
}

// closedLoop keeps loadClients jobs in flight, taking jobs in list order
// from offset, until dur has passed or the list runs out. traced picks
// the jobs recorded in spans. It returns the finished records and the
// start time.
func closedLoop(tr *tracer, c *client, jobs []job, offset int, dur time.Duration, traced func(i int) bool) ([]jobRecord, time.Time) {
	start := time.Now()
	end := start.Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	for g := 0; g < loadClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := offset + int(next.Add(1)-1)
				if i >= len(jobs) {
					return
				}
				rec := jobRecord{idx: i}
				t := tr
				if !traced(i) {
					t = nil
				}
				runJob(t, c, jobs[i], &rec)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
	return recs, start
}

// verifyRecords checks every finished job: no transport or job error,
// every histogram sums to the job's shot count, every sweep returns (and
// streams) one point per sweep entry. It counts attempts and failures.
func (rc *runCtx) verifyRecords(jobs []job, recs []jobRecord) error {
	bad := 0
	var first string
	for _, r := range recs {
		rc.attempted++
		if err := checkResult(jobs[r.idx], r); err != nil {
			rc.failed++
			bad++
			if first == "" {
				first = fmt.Sprintf("job %d: %v", r.idx, err)
			}
		}
	}
	if bad > 0 {
		return rc.check(false, "job results", fmt.Sprintf("%d of %d jobs failed; first: %s", bad, len(recs), first))
	}
	return nil
}

func checkResult(j job, r jobRecord) error {
	if r.err != nil {
		return r.err
	}
	if r.res.State != "done" {
		return fmt.Errorf("state %q: %s", r.res.State, r.res.Error)
	}
	sums := func(raw json.RawMessage) error {
		var h map[string]int
		if err := json.Unmarshal(raw, &h); err != nil {
			return err
		}
		total := 0
		for _, n := range h {
			total += n
		}
		if total != j.Req.Shots {
			return fmt.Errorf("histogram sums to %d, want %d shots", total, j.Req.Shots)
		}
		return nil
	}
	if len(j.Req.Sweep) == 0 {
		return sums(r.res.Histogram)
	}
	var pts []struct {
		Histogram json.RawMessage `json:"histogram"`
	}
	if err := json.Unmarshal(r.res.Points, &pts); err != nil {
		return err
	}
	if len(pts) != len(j.Req.Sweep) || (j.Stream && r.res.Streamed != len(j.Req.Sweep)) {
		return fmt.Errorf("%d points (%d streamed), want %d", len(pts), r.res.Streamed, len(j.Req.Sweep))
	}
	for _, p := range pts {
		if err := sums(p.Histogram); err != nil {
			return err
		}
	}
	return nil
}

// wireResult is the raw result bytes of a finished job.
func wireResult(j job, r jobRecord) []byte {
	if len(j.Req.Sweep) > 0 {
		return r.res.Points
	}
	return r.res.Histogram
}

// matchReplay compares an in-process outcome with the daemon's answer.
func matchReplay(j job, r jobRecord, out outcome) error {
	switch {
	case out.Fingerprint != r.res.Fingerprint:
		return fmt.Errorf("fingerprint %s, daemon %s", out.Fingerprint, r.res.Fingerprint)
	case out.Makespan != r.res.Makespan:
		return fmt.Errorf("makespan %d, daemon %d", out.Makespan, r.res.Makespan)
	case string(out.Result) != string(wireResult(j, r)):
		return fmt.Errorf("result bytes differ from the daemon's")
	}
	return nil
}

// rerun re-runs a sample of finished jobs in process, in a fresh cache,
// and requires byte-identical results. The sample is drawn by the seed
// alone from the first pool jobs of the list, which every run finishes,
// so a seed re-runs the same jobs however fast the run went.
func (rc *runCtx) rerun(jobs []job, recs []jobRecord, pool int) error {
	byIdx := make(map[int]jobRecord, len(recs))
	for _, r := range recs {
		byIdx[r.idx] = r
	}
	rng := rand.New(rand.NewSource(rc.seed ^ 0x7e7e))
	idx := rng.Perm(pool)[:min(rerunSample, pool)]
	r, err := newReplayer(nil, "")
	if err != nil {
		return err
	}
	for _, i := range idx {
		rec, ok := byIdx[i]
		if !ok {
			return rc.check(false, "in-process re-run", fmt.Sprintf("sampled job %d did not finish", i))
		}
		out, err := r.run(jobs[rec.idx], rec.idx)
		if err == nil {
			err = matchReplay(jobs[rec.idx], rec, out)
		}
		if err != nil {
			j := jobs[rec.idx]
			return rc.check(false, "in-process re-run", fmt.Sprintf("job %d (%s, chips %d, restored from store %v): %v",
				rec.idx, j.Kind, j.Req.Chips, j.Seeded, err))
		}
	}
	return rc.check(true, "in-process re-run", fmt.Sprintf("%d sampled jobs re-run in process match the daemon byte for byte", len(idx)))
}

// replayAll replays jobs in process with spans and requires every
// outcome to match the daemon's answer.
func (rc *runCtx) replayAll(r *replayer, jobs []job, recs []jobRecord) error {
	for _, rec := range recs {
		out, err := r.run(jobs[rec.idx], rec.idx)
		if err == nil {
			err = matchReplay(jobs[rec.idx], rec, out)
		}
		if err != nil {
			return rc.check(false, "traced replay", fmt.Sprintf("job %d: %v", rec.idx, err))
		}
	}
	return rc.check(true, "traced replay", fmt.Sprintf("%d jobs replayed through the service's calls match the daemon byte for byte", len(recs)))
}

// shotsOf is the shot count a job executes.
func shotsOf(j job) int { return j.Req.Shots * max(1, len(j.Req.Sweep)) }

// bindsOf is the BindParams count a job costs the service.
func bindsOf(j job) int {
	switch {
	case len(j.Req.Sweep) > 0:
		return len(j.Req.Sweep)
	case j.Req.Params != nil:
		return 1
	}
	return 0
}

// ms converts durations to milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// serveLayers records the client-side per-layer metrics of the records.
func (rc *runCtx) serveLayers(recs []jobRecord) {
	var sub, res []float64
	for _, r := range recs {
		sub = append(sub, ms(r.submitDur))
		res = append(res, ms(r.resultDur))
	}
	rc.layer("http.submit_ms", mean(sub))
	rc.layer("http.result_ms", mean(res))
}

// replayLayers records the per-layer metrics of a traced replay.
func (rc *runCtx) replayLayers(r *replayer) {
	rc.compilerLayers()
	st := r.cacheStats()
	rc.layer("store.hits", float64(st.StoreHits))
	rc.layer("store.spills", float64(st.Spills))
	rc.layer("artifact.misses", float64(st.Misses))
	if st.Hits+st.Misses > 0 {
		rc.layer("artifact.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	}
	rc.layer("compiler.binds", float64(r.binds))
	_, d := spanStats(rc.tr.snapshot(), "wire.encode")
	rc.layer("wire.encode_us", d.Seconds()*1e6)
	_, d = spanStats(rc.tr.snapshot(), "runner.merge")
	rc.layer("runner.merge_ms", d.Seconds()*1e3)
	if r.runShots > 0 {
		rc.layer("runner.allocs_per_shot", float64(r.allocs)/float64(r.runShots))
		rc.layer("runner.bytes_per_shot", float64(r.bytes)/float64(r.runShots))
	}
	rc.shotPath(&r.probe)
}

// overheadJobs compares traced and untraced closed-loop latencies
// between jobs of the same class — kind, and for serve-cold whether the
// family was restored from the store — so the mix of traced jobs does
// not decide the figure. Each class's medians weigh by its job count.
func (rc *runCtx) overheadJobs(jobs []job, recs []jobRecord, traced func(int) bool) {
	type class struct {
		kind   string
		seeded bool
	}
	on, off := map[class][]float64{}, map[class][]float64{}
	for _, r := range recs {
		j := jobs[r.idx]
		k := class{j.Kind, j.Seeded}
		if traced(r.idx) {
			on[k] = append(on[k], ms(r.done.Sub(r.submitted)))
		} else {
			off[k] = append(off[k], ms(r.done.Sub(r.submitted)))
		}
	}
	var tracedMs, untracedMs, weight float64
	for k, xs := range on {
		ys := off[k]
		if len(ys) == 0 {
			continue
		}
		w := float64(len(xs) + len(ys))
		tracedMs += w * median(xs)
		untracedMs += w * median(ys)
		weight += w
	}
	if weight > 0 {
		rc.overhead(tracedMs/weight, untracedMs/weight)
	}
}

// kindLatencies prints the latency median and maximum per job kind.
func (rc *runCtx) kindLatencies(jobs []job, recs []jobRecord, from func(jobRecord) time.Time) {
	byKind := map[string][]float64{}
	for _, r := range recs {
		k := jobs[r.idx].Kind
		byKind[k] = append(byKind[k], ms(r.done.Sub(from(r))))
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := byKind[k]
		sort.Float64s(xs)
		rc.logf("latency %-12s n=%4d median %.3f ms, max %.3f ms", k, len(xs), median(xs), xs[len(xs)-1])
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func latencies(recs []jobRecord, from func(jobRecord) time.Time) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.done.Sub(from(r)))
	}
	return out
}

// stats fetches /v1/stats; a failed fetch fails the run.
func (rc *runCtx) stats(c *client) serveStats {
	st, err := c.stats()
	if err != nil {
		rc.check(false, "stats", err.Error())
	}
	return st
}

func runServeWarm(rc *runCtx) error {
	var d *daemon
	var c *client
	var warm []jobRecord
	warmJobs := warmFamilyJobs(rc.seed)
	if err := rc.setup(5, func() error {
		if d != nil {
			c.close()
			d.stop()
		}
		var err error
		if d, err = rc.startDaemon(); err != nil {
			return err
		}
		c = newClient(d.base)
		warm = make([]jobRecord, len(warmJobs))
		for i := range warmJobs {
			warm[i].idx = i
			runJob(nil, c, warmJobs[i], &warm[i])
		}
		return nil
	}); err != nil {
		return err
	}
	if err := rc.verifyRecords(warmJobs, warm); err != nil {
		return err
	}
	var makespan float64
	for _, r := range warm {
		makespan += float64(r.res.Makespan)
	}

	// The window is cut into warmCycles cycles of an open-loop phase and
	// a closed-loop phase, so a slow stretch of the machine falls on both
	// latency and capacity. The jobs of each phase follow on in the list.
	openDur := time.Duration(float64(rc.window()/warmCycles) * warmOpenShare)
	jobs := genWarm(rc.seed, warmCycles*(openJobs(warmRate, openDur)+warmClosedJobs))
	traced := func(i int) bool { return rc.tr != nil && i%2 == 0 }

	st0 := rc.stats(c)
	var open, closed []jobRecord
	var capacities, shotRates []float64
	next := 0
	for k := 0; k < warmCycles; k++ {
		recs := openLoop(rc.tr, c, jobs, next, warmRate, openDur)
		next += len(recs)
		open = append(open, recs...)
		recs, start := closedLoop(rc.tr, c, jobs[:next+warmClosedJobs], next, rc.window(), traced)
		next += len(recs)
		closed = append(closed, recs...)
		jobsPerS, shotsPerS := bucketRates(jobs, recs, start)
		capacities, shotRates = append(capacities, jobsPerS...), append(shotRates, shotsPerS...)
	}
	st1 := rc.stats(c)
	rc.peakRSS(d.peakRSS())
	c.close()
	d.stop()

	if err := rc.verifyRecords(jobs, open); err != nil {
		return err
	}
	if err := rc.verifyRecords(jobs, closed); err != nil {
		return err
	}
	all := append(append([]jobRecord(nil), open...), closed...)
	binds := 0
	for _, r := range all {
		binds += bindsOf(jobs[r.idx])
	}
	rc.check(st1.Cache.Misses == st0.Cache.Misses, "no compile when warm",
		fmt.Sprintf("timed phases added %d artifact misses", st1.Cache.Misses-st0.Cache.Misses))
	rc.check(st1.Binds-st0.Binds == uint64(binds), "binds",
		fmt.Sprintf("daemon binds %d = bind jobs + sweep points %d", st1.Binds-st0.Binds, binds))
	rc.check(st1.Completed-st0.Completed == uint64(len(all)) && st1.Rejected == st0.Rejected && st1.Failed == st0.Failed,
		"admission", fmt.Sprintf("%d jobs completed, %d rejected, %d failed", st1.Completed-st0.Completed, st1.Rejected-st0.Rejected, st1.Failed-st0.Failed))
	if err := rc.rerun(jobs, all, openJobs(warmRate, openDur)); err != nil {
		return err
	}

	due := func(r jobRecord) time.Time { return r.due }
	rc.kindLatencies(jobs, open, due)
	if err := rc.latency(latencies(open, due), fmt.Sprintf("open-loop jobs at %.0f/s, timed from the due time", warmRate)); err != nil {
		return err
	}
	rc.timed("capacity_jobs_per_s", median(capacities), "1/s", fmt.Sprintf("median of %d %v windows of %d closed-loop phases; %d jobs, %d clients", len(capacities), rateBucket, warmCycles, len(closed), loadClients))
	rc.timed("shots_per_s", median(shotRates), "1/s", fmt.Sprintf("median of %d %v windows of shots served in the closed-loop phases", len(shotRates), rateBucket))
	rc.metric("sim_makespan_cycles", makespan, "cycles", fmt.Sprintf("shot 0 of %d families", len(warm)))

	if rc.tr != nil {
		late := make([]float64, len(open))
		isOpen := make(map[int]bool, len(open))
		for i, r := range open {
			late[i] = ms(r.submitted.Sub(r.due))
			isOpen[r.idx] = true
		}
		if p, err := percentile(late, 99); err == nil {
			rc.layer("gen.late_ms_p99", p)
		}
		rc.layer("service.batched_frac", float64(st1.BatchedJobs-st0.BatchedJobs)/float64(st1.Completed-st0.Completed))
		rc.layer("service.rejected", float64(st1.Rejected-st0.Rejected))
		rc.layer("service.failed", float64(st1.Failed-st0.Failed))
		rc.serveLayers(open)
		r, err := newReplayer(rc.tr, "")
		if err != nil {
			return err
		}
		// Warm the replay's cache with one job per family, as the daemon's.
		warmRoot := rc.tr.begin("setup.warmup", 0, -1)
		for i, j := range warmJobs {
			if _, err := r.run(j, -1-i); err != nil {
				return err
			}
		}
		rc.tr.end(warmRoot)
		r.mark()
		if err := rc.replayAll(r, jobs, open); err != nil {
			return err
		}
		rc.replayLayers(r)
		rc.overheadJobs(jobs, closed, traced)
		rc.selfTimes(func(s span) bool { return isOpen[s.Job] })
	}
	return nil
}

func runServeCold(rc *runCtx) error {
	jobs := genCold(rc.seed, rc.seconds*coldJobsPerSecond)
	var d *daemon
	var c *client
	var dir string
	warmup := job{Req: wireRequest{QASM: mustQASM(workloads.GHZ(3)), Shots: 8, Seed: 1}}
	seq := 0
	if err := rc.setup(3, func() error {
		if d != nil {
			c.close()
			d.stop()
			os.RemoveAll(dir)
		}
		seq++
		dir = filepath.Join(rc.workDir, fmt.Sprintf("store-%d-%d", os.Getpid(), seq))
		os.RemoveAll(dir)
		if err := rc.seedStore(dir, jobs); err != nil {
			return err
		}
		var err error
		if d, err = rc.startDaemon("-store", dir); err != nil {
			return err
		}
		c = newClient(d.base)
		for i := 0; i < 3; i++ {
			var rec jobRecord
			if runJob(nil, c, warmup, &rec); rec.err != nil {
				return rec.err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Traced jobs are two of every four: one seeded, one unseen.
	traced := func(i int) bool { return rc.tr != nil && i%4 < 2 }
	st0 := rc.stats(c)
	recs, start := closedLoop(rc.tr, c, jobs, 0, rc.window(), traced)
	st1 := rc.stats(c)
	rc.peakRSS(d.peakRSS())
	c.close()
	d.stop()

	if err := rc.verifyRecords(jobs, recs); err != nil {
		return err
	}
	seeded := 0
	for _, r := range recs {
		if jobs[r.idx].Seeded {
			seeded++
		}
	}
	unseen := len(recs) - seeded
	rc.check(st1.Cache.Misses-st0.Cache.Misses == uint64(unseen), "cold misses",
		fmt.Sprintf("daemon misses %d = unseen families %d", st1.Cache.Misses-st0.Cache.Misses, unseen))
	rc.check(st1.Cache.StoreHits-st0.Cache.StoreHits == uint64(seeded), "store hits",
		fmt.Sprintf("daemon store hits %d = seeded families %d", st1.Cache.StoreHits-st0.Cache.StoreHits, seeded))
	rc.check(st1.Completed-st0.Completed == uint64(len(recs)) && st1.Rejected == st0.Rejected && st1.Failed == st0.Failed,
		"admission", fmt.Sprintf("%d jobs completed, %d rejected, %d failed", st1.Completed-st0.Completed, st1.Rejected-st0.Rejected, st1.Failed-st0.Failed))
	if len(recs) < coldMakespanJobs {
		return rc.check(false, "cold jobs", fmt.Sprintf("only %d jobs finished, need %d", len(recs), coldMakespanJobs))
	}
	if err := rc.check(len(recs) < len(jobs), "cold families left", fmt.Sprintf("%d of %d generated families served", len(recs), len(jobs))); err != nil {
		return err
	}
	if err := rc.rerun(jobs, recs, coldMakespanJobs); err != nil {
		return err
	}
	var makespan float64
	for _, r := range recs[:coldMakespanJobs] {
		makespan += float64(r.res.Makespan)
	}

	if err := rc.latency(latencies(recs, func(r jobRecord) time.Time { return r.submitted }), fmt.Sprintf("closed-loop jobs, %d clients, timed from submit", loadClients)); err != nil {
		return err
	}
	capacities, shotRates := bucketRates(jobs, recs, start)
	rc.timed("capacity_jobs_per_s", median(capacities), "1/s", fmt.Sprintf("median of %d %v windows; %d distinct families, closed loop, %d clients", len(capacities), rateBucket, len(recs), loadClients))
	rc.timed("shots_per_s", median(shotRates), "1/s", fmt.Sprintf("median of %d %v windows of shots served", len(shotRates), rateBucket))
	rc.metric("sim_makespan_cycles", makespan, "cycles", fmt.Sprintf("shot 0 of the first %d families", coldMakespanJobs))

	if rc.tr != nil {
		rc.layer("service.batched_frac", float64(st1.BatchedJobs-st0.BatchedJobs)/float64(st1.Completed-st0.Completed))
		rc.layer("service.rejected", float64(st1.Rejected-st0.Rejected))
		rc.layer("service.failed", float64(st1.Failed-st0.Failed))
		n := min(coldReplayJobs, len(recs))
		var tracedRecs []jobRecord
		for _, r := range recs[:n] {
			if traced(r.idx) {
				tracedRecs = append(tracedRecs, r)
			}
		}
		rc.serveLayers(tracedRecs)
		// The replay's store holds the seeded families among the replayed
		// jobs, spilled in process before the replay starts.
		rdir := filepath.Join(rc.workDir, fmt.Sprintf("store-%d-replay", os.Getpid()))
		os.RemoveAll(rdir)
		defer os.RemoveAll(rdir)
		seeder, err := newReplayer(nil, rdir)
		if err != nil {
			return err
		}
		for _, rec := range recs[:n] {
			if jobs[rec.idx].Seeded {
				if _, err := seeder.run(jobs[rec.idx], rec.idx); err != nil {
					return err
				}
			}
		}
		r, err := newReplayer(rc.tr, rdir)
		if err != nil {
			return err
		}
		if err := rc.replayAll(r, jobs, recs[:n]); err != nil {
			return err
		}
		rc.replayLayers(r)
		rc.overheadJobs(jobs, recs, traced)
		rc.selfTimes(func(s span) bool { return s.Job >= 0 && s.Job < n })
	}
	return nil
}

// seedStore spills the seeded families to dir through a separate daemon
// process, which is stopped before the timed daemon starts.
func (rc *runCtx) seedStore(dir string, jobs []job) error {
	d, err := rc.startDaemon("-store", dir, "-workers", "2")
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	// Shot count is not part of the fingerprint, so one shot per family
	// spills the same artifact as the timed job will ask for.
	var seeded []job
	for _, j := range jobs {
		if j.Seeded {
			j.Req.Shots = 1
			seeded = append(seeded, j)
		}
	}
	recs, _ := closedLoop(nil, c, seeded, 0, time.Hour, func(int) bool { return false })
	for _, r := range recs {
		if err := checkResult(seeded[r.idx], r); err != nil {
			return fmt.Errorf("seeding job %d: %w", r.idx, err)
		}
	}
	if len(recs) != len(seeded) {
		return fmt.Errorf("seeded %d of %d families", len(recs), len(seeded))
	}
	return nil
}

func mustQASM(c *circuit.Circuit) string {
	src, err := circuit.WriteQASM(c)
	if err != nil {
		panic(err)
	}
	return src
}
