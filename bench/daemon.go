package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// harness owns everything a run leaves behind: its scratch directory
// under .bench_build/ in the checkout and every daemon process. close is
// safe on every exit path.
type harness struct {
	root, dir string
	oracled   string
	self      string  // this binary, which is also the reference server
	cpus      cpuMask // the processors the benchmark was started on
	procs     int     // and its GOMAXPROCS
	spread    bool    // the workload keeps all of them while its daemons run

	mu      sync.Mutex
	daemons []*daemon
	stopped []int // pids of daemons already stopped, for the leak check
	nfiles  int
}

// newHarness builds cmd/oracled from the working tree on every invocation
// — never a binary from PATH — and installs the signal handler that kills
// the daemons. The binary keeps its place in .bench_build/ from one
// invocation to the next, so that go build relinks it only when the tree
// has changed.
func newHarness(root string) (*harness, error) {
	build := filepath.Join(root, ".bench_build")
	dir := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpus, err := affinity()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, dir: dir, oracled: filepath.Join(build, "oracled"), self: self, cpus: cpus, procs: runtime.GOMAXPROCS(0)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	cmd := exec.Command("go", "build", "-o", h.oracled, "./cmd/oracled")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		h.close()
		return nil, fmt.Errorf("go build ./cmd/oracled: %v\n%s", err, out)
	}
	return h, nil
}

// cpuMask is a processor set as sched_setaffinity(2) takes it.
type cpuMask [16]uint64

// affinity is the processors the calling thread may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// last is the set that holds only the highest processor of m.
func (m cpuMask) last() cpuMask {
	var one cpuMask
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			one[w] = 1 << (63 - bits.LeadingZeros64(m[w]))
			break
		}
	}
	return one
}

// setAffinity moves every thread of this process onto the processors of m.
// Threads and processes started afterwards inherit it. A thread that
// starts while the others are being moved inherits either set, so the
// threads are walked twice.
func setAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return nil
}

// tempDir makes a fresh directory inside the run's scratch directory.
func (h *harness) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(h.dir, prefix+"-")
}

func (h *harness) close() {
	h.stopAll()
	os.RemoveAll(h.dir)
}

// stopAll kills every live daemon's process group and waits for it, and
// gives the benchmark its processors back.
func (h *harness) stopAll() {
	h.mu.Lock()
	ds := h.daemons
	h.daemons = nil
	h.mu.Unlock()
	for _, d := range ds {
		d.stop()
		h.mu.Lock()
		h.stopped = append(h.stopped, d.pid)
		h.mu.Unlock()
	}
	setAffinity(h.cpus)
	runtime.GOMAXPROCS(h.procs)
}

// leaked lists stopped daemons whose process still exists.
func (h *harness) leaked() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	for _, pid := range h.stopped {
		if syscall.Kill(pid, 0) == nil {
			out = append(out, pid)
		}
	}
	h.stopped = nil
	return out
}

// daemon is one running oracled, or the reference server, in its own
// process group.
type daemon struct {
	cmd       *exec.Cmd
	pid       int
	url       string
	bootReady time.Duration // exec to first healthy answer
	drained   chan struct{} // closed once stdout hits EOF
}

// start runs oracled with args; see spawn.
func (h *harness) start(healthPath string, args ...string) (*daemon, error) {
	return h.spawn(h.oracled, healthPath, args...)
}

// spawn runs bin with args plus -addr 127.0.0.1:0, parses the port from
// the "serving on http://…" stdout line and polls healthPath. On any
// failure the daemon is killed and its stderr is part of the error.
//
// From its first daemon until stopAll a workload lives on one processor,
// unless it is spread: the generator and every daemon. A request then
// passes from process to process by a context switch. Spread over the two
// virtual processors of the reference box it passes by an inter-processor
// interrupt to a processor that has halted, which takes the host, not the
// program, from 30 to 150 µs depending on where it runs the virtual
// processors that minute; a cached answer itself takes 60 µs.
func (h *harness) spawn(bin, healthPath string, args ...string) (*daemon, error) {
	if !h.spread {
		// A box that forbids it gets the workload unpinned, and says so.
		if err := setAffinity(h.cpus.last()); err != nil {
			fmt.Fprintln(os.Stderr, "bench: the workload is not confined to one processor:", err)
		} else {
			runtime.GOMAXPROCS(1)
		}
	}
	h.mu.Lock()
	h.nfiles++
	name := filepath.Base(bin)
	errPath := filepath.Join(h.dir, fmt.Sprintf("%s-%d.stderr", name, h.nfiles))
	h.mu.Unlock()
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()

	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Dir = h.dir
	cmd.Stderr = errFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, drained: make(chan struct{})}
	h.mu.Lock()
	h.daemons = append(h.daemons, d)
	h.mu.Unlock()

	urlc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		r := bufio.NewReader(stdout)
		for {
			line, err := r.ReadString('\n')
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				select {
				case urlc <- strings.TrimSpace(line[i+len("serving on "):]):
				default:
				}
			}
			if err != nil {
				return
			}
		}
	}()
	bootErr := func(what string) error {
		d.stop()
		msg, _ := os.ReadFile(errPath)
		return fmt.Errorf("%s %s: %s\n--- daemon stderr ---\n%s", name, strings.Join(args, " "), what, msg)
	}
	select {
	case d.url = <-urlc:
	case <-d.drained:
		return nil, bootErr("exited before serving")
	case <-time.After(60 * time.Second):
		return nil, bootErr("no serving line within 60s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url + healthPath)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, bootErr("never became healthy at " + healthPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.bootReady = time.Since(t0)
	return d, nil
}

// stop kills the daemon's process group and waits until it has ended.
func (d *daemon) stop() {
	syscall.Kill(-d.pid, syscall.SIGKILL)
	<-d.drained // Wait closes the pipe; the reader must be done first
	d.cmd.Wait()
}

// scrape fetches and parses /v1/stats.
func (d *daemon) scrape(ctx context.Context) (statsSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return parseStats(raw)
}

// cpuOf sums the CPU seconds of the given daemons.
func cpuOf(ds []*daemon) float64 {
	var sum float64
	for _, d := range ds {
		if c, err := procCPU(d.pid); err == nil {
			sum += c
		}
	}
	return sum
}
