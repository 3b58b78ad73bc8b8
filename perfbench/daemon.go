package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// daemon is one dhisq-serve child process on localhost.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives the exit status once; stop puts it back

	stopped bool
}

// freePort asks the kernel for an unused localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches dhisq-serve with args and waits until /healthz
// answers. The child is killed if the benchmark dies first.
func (rc *runCtx) startDaemon(args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(rc.workDir, "dhisq-serve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(rc.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", rc.serveBin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	rc.daemons = append(rc.daemons, d)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("dhisq-serve exited during start: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dhisq-serve did not become healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSS reads the daemon's VmHWM in kB.
func (d *daemon) peakRSS() (int64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// stop terminates the daemon gracefully, killing it after a grace
// period, and waits until it has exited.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		err := <-d.done
		d.done <- err
	}
	d.log.Close()
}

// stopDaemons stops every daemon the run started.
func (rc *runCtx) stopDaemons() {
	for _, d := range rc.daemons {
		d.stop()
	}
}

// serveStats is the part of /v1/stats the traffic checks read.
type serveStats struct {
	Submitted   uint64 `json:"submitted"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Rejected    uint64 `json:"rejected"`
	BatchedJobs uint64 `json:"batched_jobs"`
	Binds       uint64 `json:"binds"`
	Cache       struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		StoreHits uint64 `json:"store_hits"`
		Spills    uint64 `json:"spills"`
	} `json:"artifact_cache"`
}

// client is the load generator's HTTP side: at most two connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) stats() (serveStats, error) {
	var st serveStats
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// submit posts a job and returns its id.
func (c *client) submit(w wireRequest) (string, error) {
	body, err := json.Marshal(w)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return "", err
	}
	return r.ID, nil
}

// jobResult is the terminal job snapshot with its result kept as the
// raw bytes the wire carried.
type jobResult struct {
	State       string          `json:"state"`
	Shots       int             `json:"shots"`
	Fingerprint string          `json:"fingerprint"`
	Makespan    int64           `json:"makespan_cycles"`
	Histogram   json.RawMessage `json:"histogram"`
	Points      json.RawMessage `json:"points"`
	Error       string          `json:"error"`
	Streamed    int             `json:"-"` // point lines read before the job line
}

// result waits for a job's terminal snapshot: a long poll, or the NDJSON
// stream for sweep jobs.
func (c *client) result(id string, stream bool) (jobResult, error) {
	var jr jobResult
	if !stream {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "?wait=1")
		if err != nil {
			return jr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return jr, fmt.Errorf("poll %s: HTTP %d", id, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&jr)
		return jr, err
	}
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return jr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	points := 0
	for sc.Scan() {
		var line struct {
			Point json.RawMessage `json:"point"`
			Job   *jobResult      `json:"job"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return jr, err
		}
		if line.Job != nil {
			line.Job.Streamed = points
			return *line.Job, nil
		}
		points++
	}
	if err := sc.Err(); err != nil {
		return jr, err
	}
	return jr, fmt.Errorf("stream %s ended without a job line after %d points", id, points)
}
