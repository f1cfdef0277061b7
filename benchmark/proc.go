package main

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// buildDir holds everything the benchmark leaves behind (the cardsd
// binary, Chrome traces); it is relative to the working directory, the
// root of the checkout, and listed in .gitignore.
const buildDir = ".bench_build"

// buildCardsd compiles ./cmd/cardsd of the module rooted at root into
// root's buildDir and returns the binary's path. The cost is not part
// of any metric.
func buildCardsd(root string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(root, buildDir, "cardsd"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cardsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/cardsd: %w\n%s", err, out)
	}
	return bin, nil
}

// pinToOneCPU restricts every thread of this process, and with them every
// worker and cardsd child started afterwards, to the highest-numbered CPU
// the process may use, and returns that CPU. On the shared two-vCPU hosts
// this runs on, a round trip that hops between vCPUs pays a wake-up whose
// cost follows the neighbours' load (it doubled the CPU time of a remote
// fault and tripled the run-to-run spread); on one CPU the hand-off is a
// context switch. Workers and servers then see one CPU, so GOMAXPROCS is 1
// in each and nothing runs more threads at once than there are CPUs.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1024 CPUs, the kernel's cpu_set_t
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i, w := range mask {
		if w != 0 {
			cpu = i*64 + bits.Len64(w) - 1
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread the runtime starts between the listing and the call keeps
	// the old mask; the second pass catches it.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return cpu, nil
}

// servingPrefix precedes the bound address in cardsd's start-up log.
const servingPrefix = "cardsd: serving far memory on "

// server is one cardsd child process on TCP loopback.
type server struct {
	cmd  *exec.Cmd
	addr string
	pid  int
	logs chan struct{} // closed once stderr is drained
}

// startServer launches cardsd on an ephemeral loopback port and waits
// for the line that announces the bound address.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cardsd: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, logs: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.logs)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if i := strings.Index(sc.Text(), servingPrefix); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(sc.Text()[i+len(servingPrefix):]):
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.logs:
		s.stop()
		return nil, fmt.Errorf("cardsd exited before announcing its address")
	case <-time.After(10 * time.Second):
		s.stop()
		return nil, fmt.Errorf("cardsd did not announce its address within 10s")
	}
	// The per-layer and wire metrics are process accounting; without it
	// the benchmark would print zeros that look like measurements.
	if _, err := readProcIO(s.pid); err != nil {
		s.stop()
		return nil, fmt.Errorf("process accounting unavailable, refusing to run: %w", err)
	}
	return s, nil
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already-exited is fine: Wait reaps either way
	<-s.logs
	_ = s.cmd.Wait()
}

// procIO is the subset of /proc/<pid>/io the benchmark uses: bytes and
// calls through read/write-family syscalls, which for cardsd is its
// socket traffic.
type procIO struct {
	rchar, wchar, syscr, syscw uint64
}

func readProcIO(pid int) (procIO, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	var io procIO
	seen := 0
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("/proc/%d/io: %q: %w", pid, line, err)
		}
		switch k {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		default:
			continue
		}
		seen++
	}
	if seen != 4 {
		return procIO{}, fmt.Errorf("/proc/%d/io: expected rchar, wchar, syscr, syscw", pid)
	}
	return io, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// readProcCPU returns utime+stime of a process from /proc/<pid>/stat.
func readProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// readPeakRSS returns VmHWM of a process in MiB.
func readPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// usage is one reading of every process-accounting source: this
// process through getrusage and the Go runtime, each cardsd child
// through /proc.
type usage struct {
	at        time.Time
	user, sys time.Duration
	nvcsw     int64
	mallocs   uint64
	gcPause   time.Duration
	srvCPU    []time.Duration
	srvIO     []procIO
}

func sampleUsage(servers []*server) (usage, error) {
	var u usage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	u.gcPause = time.Duration(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	u.user = time.Duration(ru.Utime.Nano())
	u.sys = time.Duration(ru.Stime.Nano())
	u.nvcsw = ru.Nvcsw
	for _, s := range servers {
		cpu, err := readProcCPU(s.pid)
		if err != nil {
			return u, err
		}
		io, err := readProcIO(s.pid)
		if err != nil {
			return u, err
		}
		u.srvCPU = append(u.srvCPU, cpu)
		u.srvIO = append(u.srvIO, io)
	}
	u.at = time.Now()
	return u, nil
}

// region is the accounting of one measured region: the difference of
// two usage readings.
type region struct {
	wall               time.Duration
	clientCPU, sysCPU  time.Duration
	serverCPU          time.Duration
	wireBytes          uint64   // rchar+wchar over all servers
	perServerWire      []uint64 // the same, per server
	serverBytesIn      uint64   // rchar over all servers
	serverSyscalls     uint64
	mallocs            uint64
	gcPause            time.Duration
	voluntaryCtxSwitch int64
}

func (a usage) until(b usage) region {
	r := region{
		wall:               b.at.Sub(a.at),
		clientCPU:          (b.user - a.user) + (b.sys - a.sys),
		sysCPU:             b.sys - a.sys,
		mallocs:            b.mallocs - a.mallocs,
		gcPause:            b.gcPause - a.gcPause,
		voluntaryCtxSwitch: b.nvcsw - a.nvcsw,
	}
	for i := range a.srvIO {
		r.serverCPU += b.srvCPU[i] - a.srvCPU[i]
		in := b.srvIO[i].rchar - a.srvIO[i].rchar
		out := b.srvIO[i].wchar - a.srvIO[i].wchar
		r.perServerWire = append(r.perServerWire, in+out)
		r.wireBytes += in + out
		r.serverBytesIn += in
		r.serverSyscalls += (b.srvIO[i].syscr - a.srvIO[i].syscr) + (b.srvIO[i].syscw - a.srvIO[i].syscw)
	}
	return r
}

// envBlock describes the host and build the numbers were taken on.
func envBlock() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"commit":     "unknown",
		"kernel":     "unknown",
		"cpu":        "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(io.LimitReader(f, 1<<16))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
