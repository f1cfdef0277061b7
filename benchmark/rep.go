package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"cards/internal/stats"
)

// repSpec describes one repetition: a fixed amount of work on one
// workload, run by a fresh worker process so that heap, GC state and
// peak RSS start clean. kindLadder runs the seam microbenchmarks
// instead of a workload.
type repSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	Cardsd   string `json:"cardsd"`
	// Traced selects the hand-built stack wrapped in tracedStore with
	// TraceHub and Obs on; TraceOut is where its Chrome trace goes.
	Traced   bool   `json:"traced,omitempty"`
	TraceOut string `json:"trace_out,omitempty"`
	// Expect is the oracle checksum of a compiled workload, computed
	// once by the parent from an all-local run; HaveExpect gates it.
	Expect     uint64 `json:"expect,omitempty"`
	HaveExpect bool   `json:"have_expect,omitempty"`
}

const kindLadder = "ladder"

// repResult is what one repetition measured.
type repResult struct {
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	WallS     float64   `json:"wall_s"` // measured region
	Metrics   metricMap `json:"metrics"`
	// Engagement counters the traced repetition must reproduce (see
	// sameProgram); zero for workloads that do not have them.
	Checksum         uint64 `json:"checksum,omitempty"`
	ChasesIssued     uint64 `json:"chases_issued,omitempty"`
	StagedWriteBacks uint64 `json:"staged_writebacks,omitempty"`
	// Inputs of the layer budget (array workloads): the mean per-call
	// latency, the attributed transport time per call (traced only) and
	// the remote fetches per call.
	MeanOpUS      float64 `json:"mean_op_us,omitempty"`
	AttribPerOpUS float64 `json:"attrib_per_op_us,omitempty"`
	FetchesPerOp  float64 `json:"fetches_per_op,omitempty"`
}

// runner executes one repetition. The benchmark uses subprocessRunner;
// the smoke test runs repetitions in-process.
type runner func(repSpec) (*repResult, error)

// runRep is the worker side: it runs the repetition in this process.
func runRep(spec repSpec) (*repResult, error) {
	sz, ok := scales[spec.Scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", spec.Scale)
	}
	if spec.Workload == kindLadder {
		m, err := runLadder(sz.ladderTime)
		if err != nil {
			return nil, err
		}
		return &repResult{Attempted: 1, Metrics: m}, nil
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	setupStart := time.Now()
	servers := make([]*server, 0, w.servers)
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	for i := 0; i < w.servers; i++ {
		s, err := startServer(spec.Cardsd)
		if err != nil {
			return nil, err
		}
		servers = append(servers, s)
	}
	e := &repEnv{spec: spec, sz: sz, servers: servers, setupStart: setupStart}
	var res *repResult
	var err error
	switch {
	case compiledWorkload(spec.Workload):
		res, err = runCompiled(e)
	case spec.Workload == wlFanin:
		res, err = runFanin(e)
	default:
		res, err = runArray(e)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Workload, err)
	}
	peak := 0.0
	for _, s := range servers {
		rss, err := readPeakRSS(s.pid)
		if err != nil {
			return nil, err
		}
		peak = max(peak, rss)
	}
	res.Metrics["cardsd.peak_rss_mb"] = peak
	// VmHWM, not ru_maxrss: the latter survives fork and exec, so a
	// fresh worker would report its parent's peak (the oracle run's).
	if res.Metrics[mRSS], err = readPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	return res, nil
}

// repEnv is the state a workload's repetition shares with the common
// accounting below.
type repEnv struct {
	spec       repSpec
	sz         sizes
	servers    []*server
	setupStart time.Time
	before     usage
}

func (e *repEnv) addrs() []string {
	out := make([]string, len(e.servers))
	for i, s := range e.servers {
		out[i] = s.addr
	}
	return out
}

// begin ends set-up and opens the measured region.
func (e *repEnv) begin() (setup time.Duration, err error) {
	setup = time.Since(e.setupStart)
	e.before, err = sampleUsage(e.servers)
	return setup, err
}

// end closes the measured region and derives every metric that comes
// from process accounting. ops is the workload's unit of work; failed
// of them errored or failed the oracle.
func (e *repEnv) end(setup time.Duration, ops, failed uint64) (*repResult, region, error) {
	after, err := sampleUsage(e.servers)
	if err != nil {
		return nil, region{}, err
	}
	if ops == 0 {
		return nil, region{}, fmt.Errorf("measured region did no work")
	}
	r := e.before.until(after)
	n := float64(ops)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m := metricMap{
		mSetup:                   setup.Seconds(),
		mOps:                     n / r.wall.Seconds(),
		mCPU:                     us(r.clientCPU+r.serverCPU) / n,
		mWire:                    float64(r.wireBytes) / n,
		mFailed:                  float64(failed) / n,
		"client.cpu_us_per_op":   us(r.clientCPU) / n,
		"client.sys_share":       ratio(float64(r.sysCPU), float64(r.clientCPU)),
		"client.allocs_per_op":   float64(r.mallocs) / n,
		"client.gc_pause_ms":     float64(r.gcPause) / float64(time.Millisecond),
		"client.ctxsw_per_op":    float64(r.voluntaryCtxSwitch) / n,
		"cardsd.cpu_us_per_op":   us(r.serverCPU) / n,
		"cardsd.syscalls_per_op": float64(r.serverSyscalls) / n,
	}
	return &repResult{Attempted: ops, Failed: failed, WallS: r.wall.Seconds(), Metrics: m}, r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sampleOf collects values for order statistics.
func sampleOf(v []float64) *stats.Sample {
	var s stats.Sample
	for _, x := range v {
		s.Observe(x)
	}
	return &s
}

// latencyMetrics fills op_p50_us / op_p99_us from per-call samples in
// microseconds and returns their mean.
func latencyMetrics(m metricMap, us []float64) (mean float64) {
	s := sampleOf(us)
	m[mP50], m[mP99] = s.Median(), s.Quantile(0.99)
	return s.Mean()
}

// workerFlag makes the binary run one repetition (JSON spec in the
// flag's value) and print its repResult as the last line of stdout.
const workerFlag = "worker"

// subprocessRunner runs the repetition in a fresh copy of this binary.
// The worker gets its own process group so a timeout can take its
// cardsd children down with it.
func subprocessRunner(spec repSpec) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-"+workerFlag, string(arg))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(150 * time.Second):
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // whole group; the worker is gone if this fails
		<-done
		return nil, fmt.Errorf("%s repetition exceeded 150s and was killed", spec.Workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s worker: %w", spec.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res repResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s worker output: %w", spec.Workload, err)
	}
	return &res, nil
}

// workerMain is the entry point behind workerFlag.
func workerMain(arg string) error {
	var spec repSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("worker spec: %w", err)
	}
	res, err := runRep(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
