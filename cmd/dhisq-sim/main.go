// Command dhisq-sim compiles an OpenQASM dynamic circuit (or a named
// benchmark) through the full Distributed-HISQ stack and executes it on the
// simulated control fabric, reporting makespan and invariant checks. With
// -shots > 1 the compiled program is run repeatedly through the shot
// subsystem (internal/runner): compiled once, reset per shot, fanned out
// across -workers machine replicas, with a deterministic merged histogram.
//
// With -serve URL the circuit is not run in-process: it is submitted as a
// job to a running dhisq-serve daemon, which compiles it at most once (the
// shared artifact cache) and batches it with other jobs for the same
// circuit; dhisq-sim long-polls the job and prints its histogram.
//
// Usage:
//
//	dhisq-sim -qasm file.qasm            run a circuit from OpenQASM
//	dhisq-sim -bench qft_n30 [-scale N]  run a Figure 15 benchmark
//	dhisq-sim -shots 100 -workers 4 ...  multi-shot execution
//	dhisq-sim -topo torus -link-bw 4 ..  alternate topology + finite link bandwidth
//	dhisq-sim -placement interaction ..  interaction-aware qubit placement
//	dhisq-sim -schedule padded ..        ablate advance-booked scheduling
//	dhisq-sim -bind theta0=0.5,phi=1 ..  bind a parameterized circuit's angles
//	dhisq-sim -serve http://host:8080 .. submit to a dhisq-serve daemon
//	dhisq-sim -list                      list benchmark names
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dhisq/internal/circuit"
	"dhisq/internal/compiler"
	"dhisq/internal/machine"
	"dhisq/internal/network"
	"dhisq/internal/placement"
	"dhisq/internal/runner"
	"dhisq/internal/sim"
	"dhisq/internal/workloads"
)

func main() {
	qasm := flag.String("qasm", "", "OpenQASM 2.0 file to run")
	bench := flag.String("bench", "", "Figure 15 benchmark name")
	scale := flag.Int("scale", 1, "benchmark size divisor")
	seed := flag.Int64("seed", 1, "measurement outcome base seed")
	shots := flag.Int("shots", 1, "number of repetitions (compile once, reset per shot)")
	workers := flag.Int("workers", 0, "machine replicas running shots in parallel (0 = GOMAXPROCS)")
	topoName := flag.String("topo", "mesh", "fabric topology: mesh, torus, or tree")
	linkBW := flag.Int64("link-bw", 0, "link bandwidth as cycles per message (0 = infinite, contention off)")
	routerPorts := flag.Int("router-ports", 0, "physical ports per router (0 = one per tree edge)")
	placePolicy := flag.String("placement", "", "placement policy for unmapped circuits: identity, rowmajor, interaction, or congestion (default identity)")
	schedPolicy := flag.String("schedule", "", "compiler scheduling policy: fixed or padded (default fixed)")
	collective := flag.String("collective", "", "fabric collective schedule: naive, ring, halving, tree, or auto (default off; turns on collective-aware feed-forward lowering and the post-run digest reduce)")
	chips := flag.Int("chips", 0, "split the device into N chips; cross-chip 2q gates run as EPR-mediated teleported gates (0/1 = single chip)")
	eprLatency := flag.Int64("epr-latency", 0, "EPR pair-generation latency in cycles for multi-chip runs (0 = machine default)")
	bind := flag.String("bind", "", "bind symbolic circuit parameters, e.g. -bind theta0=0.5,theta1=1.2")
	serve := flag.String("serve", "", "dhisq-serve base URL: submit as a job instead of running in-process")
	list := flag.Bool("list", false, "list benchmark names")
	flag.Parse()

	if *list {
		for _, n := range workloads.Fig15Names() {
			fmt.Println(n)
		}
		return
	}

	params, err := parseBind(*bind)
	must(err)

	if *serve != "" {
		must(submitRemote(*serve, *qasm, *bench, *scale, *shots, *seed,
			*topoName, *linkBW, *routerPorts, *placePolicy, *schedPolicy, *collective,
			*chips, *eprLatency, params))
		return
	}

	var c *circuit.Circuit
	var meshW, meshH int
	var mapping []int
	switch {
	case *qasm != "":
		data, err := os.ReadFile(*qasm)
		must(err)
		cc, err := circuit.ParseQASM(string(data))
		must(err)
		c = cc
		meshW, meshH = placement.AutoMesh(c.NumQubits)
	case *bench != "":
		b, err := workloads.BuildScaled(*bench, *scale)
		must(err)
		c, meshW, meshH, mapping = b.Circuit, b.MeshW, b.MeshH, b.Mapping
		if params == nil {
			params = b.DefaultParams // parameterized bench, no -bind: sweep point 0
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: dhisq-sim -qasm file | -bench name [-scale N] [-shots N -workers W] | -list")
		os.Exit(2)
	}
	if *shots < 1 {
		*shots = 1
	}
	if params != nil {
		bound, err := c.Bind(params)
		must(err)
		c = bound
	}
	if ub := c.UnboundParams(); len(ub) > 0 {
		must(fmt.Errorf("circuit has unbound parameters %v: supply -bind", ub))
	}

	topoKind, err := validateFlags(*topoName, *placePolicy, *schedPolicy, *collective, *chips, *eprLatency)
	must(err)
	cfg := machine.DefaultConfig(c.NumQubits)
	cfg.Seed = *seed
	cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
	cfg.Placement = *placePolicy
	cfg.Schedule = *schedPolicy
	cfg.Collective = *collective
	if *chips > 1 {
		if mapping != nil {
			must(fmt.Errorf("-chips is incompatible with this benchmark's prebuilt qubit mapping (the chip expansion adds communication qubits)"))
		}
		cfg.Chips = *chips
		cfg.EPRLatency = sim.Time(*eprLatency)
		// One communication qubit per chip joins the device; regrow the
		// controller mesh the same way the service does at admission.
		meshW, meshH = cfg.Mesh(c.NumQubits)
		cfg.Net.MeshW, cfg.Net.MeshH = meshW, meshH
	}
	cfg.Net.Topology = topoKind
	cfg.Net.LinkSerialization = *linkBW
	cfg.Net.RouterPorts = *routerPorts
	topo, err := network.NewTopology(cfg.Net)
	must(err)

	start := time.Now()
	set, err := runner.Run(runner.Spec{
		Circuit: c, MeshW: meshW, MeshH: meshH, Mapping: mapping, Cfg: cfg,
	}, *shots, *workers)
	must(err)
	elapsed := time.Since(start)

	res := set.Shots[0].Result
	st := c.CountStats()
	fmt.Printf("qubits:        %d (%s %dx%d, %d routers)\n", c.NumQubits, topoKind, meshW, meshH, topo.NumRouters)
	fmt.Printf("circuit:       %d 1q, %d 2q, %d measurements, %d feed-forward ops\n",
		st.OneQubit, st.TwoQubit, st.Measurements, st.Feedforward)
	fmt.Printf("makespan:      %d cycles (%d ns)\n", res.Makespan, sim.Nanoseconds(res.Makespan))
	fmt.Printf("instructions:  %d executed, %d codeword commits\n", res.Instructions, res.Commits)
	fmt.Printf("chip:          %d gates, %d measurements applied\n", res.Gates, res.Measurements)
	if cfg.Chips > 1 {
		fmt.Printf("chips:         %d, %d EPR pairs generated (shot 0)\n", cfg.Chips, res.EPRPairs)
	}
	fmt.Printf("sync stalls:   %d cycles total\n", res.SyncStall)
	if res.Net.Enabled {
		fmt.Printf("congestion:    %d stall cycles, max queue %d, busiest port %.1f%% utilized\n",
			res.Net.TotalStall(), res.Net.MaxQueue(), 100*res.RouterUtilization)
	}
	if *collective != "" {
		fmt.Printf("collective:    digest %#x in %d cycles (%s schedule, %d ops)\n",
			res.CollectiveDigest, res.CollectiveCycles, *collective, res.Net.CollectiveOps)
	}

	var violations, misalignments, overlaps uint64
	for _, s := range set.Shots {
		violations += s.Result.Violations
		misalignments += uint64(s.Result.Misalignments)
		overlaps += uint64(s.Result.Overlaps)
	}
	fmt.Printf("invariants:    %d timing violations, %d co-commitment misalignments, %d overlaps\n",
		violations, misalignments, overlaps)

	if *shots > 1 {
		fmt.Printf("shots:         %d in %v (%.1f shots/s)\n",
			*shots, elapsed.Round(time.Millisecond), float64(*shots)/elapsed.Seconds())
		if set.NumBits > 0 {
			fmt.Printf("histogram (%d bits, bit 0 leftmost):\n", set.NumBits)
			h := set.Histogram()
			for _, k := range h.Keys() {
				fmt.Printf("  %s %d\n", k, h[k])
			}
		}
	}
	if violations != 0 || misalignments != 0 {
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhisq-sim:", err)
		os.Exit(1)
	}
}

// parseBind parses the -bind flag: comma-separated name=value pairs
// binding a parameterized circuit's symbolic angles ("" = nil, no bind).
func parseBind(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-bind: want name=value, got %q", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("-bind: bad value for %q: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// validateFlags checks the topology, policy and multi-chip flags the
// in-process run and the -serve submission share, so a bad value fails
// identically — and before anything runs or travels — on either path. It
// returns the parsed topology.
func validateFlags(topo, placePolicy, schedPolicy, collective string, chips int, eprLatency int64) (network.TopologyKind, error) {
	kind, err := network.ParseTopology(topo)
	if err != nil {
		return kind, err
	}
	if err := placement.Valid(placePolicy); err != nil {
		return kind, err
	}
	if err := compiler.ValidSchedule(schedPolicy); err != nil {
		return kind, err
	}
	if collective != "" {
		if _, err := network.ParseCollSchedule(collective); err != nil {
			return kind, err
		}
	}
	if chips < 0 || eprLatency < 0 {
		return kind, fmt.Errorf("-chips and -epr-latency must be non-negative")
	}
	return kind, nil
}

// submitRemote is the -serve client mode: POST the circuit to a running
// dhisq-serve daemon, long-poll the job, and print its histogram. The
// circuit travels as QASM text or as a benchmark name the daemon rebuilds
// locally, and the fabric/placement flags (-topo/-link-bw/-router-ports/
// -placement) travel alongside it; results are identical to an in-process
// run with the same seed and fabric.
//
// The flag values are validated locally before anything travels: an
// invalid -topo or -placement fails here with the parser's own message
// instead of round-tripping to the daemon for a remote rejection.
func submitRemote(base, qasmPath, bench string, scale, shots int, seed int64, topo string, linkBW int64, routerPorts int, placePolicy, schedPolicy, collective string, chips int, eprLatency int64, params map[string]float64) error {
	if topo == "" {
		topo = "mesh"
	}
	if _, err := validateFlags(topo, placePolicy, schedPolicy, collective, chips, eprLatency); err != nil {
		return err
	}
	body := map[string]any{"shots": shots, "seed": seed}
	if params != nil {
		body["params"] = params
	}
	if topo != "" && topo != "mesh" {
		body["topo"] = topo
	}
	if linkBW > 0 {
		body["link_bw"] = linkBW
	}
	if routerPorts > 0 {
		body["router_ports"] = routerPorts
	}
	if placePolicy != "" {
		body["placement"] = placePolicy
	}
	if schedPolicy != "" {
		body["schedule"] = schedPolicy
	}
	if collective != "" {
		body["collective"] = collective
	}
	if chips > 1 {
		body["chips"] = chips
		if eprLatency > 0 {
			body["epr_latency"] = eprLatency
		}
	}
	switch {
	case qasmPath != "" && bench != "":
		return fmt.Errorf("-serve takes -qasm or -bench, not both")
	case qasmPath != "":
		data, err := os.ReadFile(qasmPath)
		if err != nil {
			return err
		}
		body["qasm"] = string(data)
	case bench != "":
		body["bench"] = bench
		body["scale"] = scale
	default:
		return fmt.Errorf("-serve needs -qasm or -bench")
	}

	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var submitted struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s (%s)", resp.Status, submitted.Error)
	}
	// Cluster mode: a 307 redirect already landed this submission on its
	// owning shard (http.Post replays the body there), and that shard's
	// response names itself. Job IDs are per-shard, so polls must go to
	// the owner, not whichever member we happened to submit through.
	if submitted.Shard != "" {
		base = submitted.Shard
	}
	fmt.Printf("job:           %s on %s\n", submitted.ID, base)

	poll, err := http.Get(base + "/v1/jobs/" + submitted.ID + "?wait=1")
	if err != nil {
		return err
	}
	defer poll.Body.Close()
	var job struct {
		State     string         `json:"state"`
		Seed      int64          `json:"seed"`
		Shots     int            `json:"shots"`
		CacheHit  bool           `json:"cache_hit"`
		Batched   bool           `json:"batched"`
		MeshW     int            `json:"mesh_w"`
		MeshH     int            `json:"mesh_h"`
		Placement string         `json:"placement"`
		Schedule  string         `json:"schedule"`
		Mapping   []int          `json:"mapping"`
		Makespan  int64          `json:"makespan_cycles"`
		Histogram map[string]int `json:"histogram"`
		Error     string         `json:"error"`
	}
	if err := json.NewDecoder(poll.Body).Decode(&job); err != nil {
		return fmt.Errorf("job response: %w", err)
	}
	if job.State != "done" {
		return fmt.Errorf("job %s: %s (%s)", submitted.ID, job.State, job.Error)
	}
	elapsed := time.Since(start)

	fmt.Printf("state:         %s (seed %d, cache hit %v, batched %v)\n",
		job.State, job.Seed, job.CacheHit, job.Batched)
	if job.MeshW > 0 && job.MeshH > 0 {
		fmt.Printf("placement:     %s on %dx%d mesh\n", job.Placement, job.MeshW, job.MeshH)
	}
	if job.Schedule != "" {
		fmt.Printf("schedule:      %s\n", job.Schedule)
	}
	if len(job.Mapping) > 0 {
		fmt.Printf("mapping:       %v\n", job.Mapping)
	}
	fmt.Printf("makespan:      %d cycles (%d ns)\n", job.Makespan, sim.Nanoseconds(sim.Time(job.Makespan)))
	fmt.Printf("shots:         %d in %v (%.1f shots/s)\n",
		job.Shots, elapsed.Round(time.Millisecond), float64(job.Shots)/elapsed.Seconds())
	if len(job.Histogram) > 0 {
		keys := make([]string, 0, len(job.Histogram))
		for k := range job.Histogram {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("histogram (bit 0 leftmost):\n")
		for _, k := range keys {
			fmt.Printf("  %s %d\n", k, job.Histogram[k])
		}
	}
	return nil
}
