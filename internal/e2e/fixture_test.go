//go:build linux

// Package e2e boots the real binaries — oracled, graphgen, apsp,
// shardplan — as processes and checks what an in-process test cannot:
// exit codes, signal handling, flag → config wiring, the process-global
// /v1/stats, and crash/restart. Everything else about the daemon is
// checked in-process, beside the code (cmd/oracled, internal/registry,
// internal/jobs, internal/shard).
//
// TestMain builds the binaries once into a temporary directory, with
// -race when the test binary itself runs under -race. Every daemon runs
// in its own process group, is killed with it when its test ends, and
// dies with the test binary if that exits first. The package is skipped
// under -short. One scenario at a time:
//
//	go test -run TestSnapshotBoot -v ./internal/e2e
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binDir holds the binaries TestMain built; empty under -short.
var binDir string

// binSources lists the module's Go files the built binaries compile from.
// The go build subprocess is invisible to go test's result cache, which
// keys a cached pass on the files a test opens, and only while tests run:
// opening these once from inside a test makes an edit to any of them
// rerun the package instead of replaying a pass of the old binaries.
var (
	binSources     []string
	binSourcesOnce sync.Once
)

// bootTimeout bounds how long a daemon may take to print its address or
// to exit, and a test's polling loops; race-instrumented daemons are
// several times slower.
var bootTimeout = 60 * time.Second

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "e2e-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	if raceEnabled {
		args = append(args, "-race")
		bootTimeout *= 3
	}
	cmds := []string{"./cmd/oracled", "./cmd/graphgen", "./cmd/apsp", "./cmd/shardplan"}
	goTool := func(args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join("..", "..")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "go %s: %v\n", strings.Join(args, " "), err)
			os.RemoveAll(dir)
			os.Exit(1)
		}
		return out
	}
	goTool(append(args, cmds...)...)
	files := goTool(append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`}, cmds...)...)
	binSources = append(strings.Fields(string(files)), filepath.Join("..", "..", "go.mod"))
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// needBinaries skips the calling test under -short. The first call opens
// binSources, so go test's cache tracks them.
func needBinaries(t *testing.T) {
	t.Helper()
	if binDir == "" {
		t.Skip("boots real processes; skipped under -short")
	}
	binSourcesOnce.Do(func() {
		for _, name := range binSources {
			if f, err := os.Open(name); err == nil {
				f.Close()
			}
		}
	})
}

// procAttr puts a child in its own process group, so one kill reaches
// everything it started, and kills it if the test binary dies first.
func procAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// run executes a one-shot tool in dir and fails the test unless it exits 0.
func run(t *testing.T, dir, tool string, args ...string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	cmd.Dir = dir
	cmd.SysProcAttr = procAttr()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
	}
}

// daemon is one oracled process.
type daemon struct {
	t      *testing.T
	args   []string
	cmd    *exec.Cmd
	url    string        // base URL, set once the serving line is read
	urlc   chan string   // the serving line's URL
	stderr string        // path of the captured stderr
	exited chan struct{} // closed once the process has been reaped
	state  *os.ProcessState
}

// spawn starts oracled in dir with args, plus -addr 127.0.0.1:0 unless
// args name an address. The test's cleanup kills the daemon's process
// group and reaps it.
func spawn(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	if !slices.Contains(args, "-addr") {
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	}
	errf, err := os.CreateTemp(t.TempDir(), "oracled-*.stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer errf.Close()
	d := &daemon{t: t, args: args, stderr: errf.Name(), exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(binDir, "oracled"), args...)
	d.cmd.Dir = dir
	d.cmd.Stderr = errf
	d.cmd.SysProcAttr = procAttr()
	// A race-built daemon dies at its first race, so a race fails the
	// request that ran into it; cleanup reports the race itself.
	d.cmd.Env = append(os.Environ(), "GORACE=halt_on_error=1")
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.kill()
		if text := d.stderrText(); strings.Contains(text, "DATA RACE") {
			t.Errorf("oracled %s:\n%s", strings.Join(d.args, " "), text)
		}
	})
	d.urlc = make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "oracled: serving on http://…" or "oracled: shard N serving on http://…"
			if _, url, ok := strings.Cut(sc.Text(), "serving on "); ok {
				select {
				case d.urlc <- url:
				default: // only the first line counts; never block the reaper
				}
			}
		}
		d.cmd.Wait() // after the last read: Wait closes the pipe
		d.state = d.cmd.ProcessState
		close(d.exited)
	}()
	return d
}

// serve starts a daemon (see spawn) and waits for the address it prints.
// The listener is bound before the line is printed, so the daemon accepts
// requests from then on.
func serve(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	d := spawn(t, dir, args...)
	select {
	case d.url = <-d.urlc:
	case <-d.exited:
		t.Fatalf("oracled %s exited (%v) before serving:\n%s", strings.Join(d.args, " "), d.state, d.stderrText())
	case <-time.After(bootTimeout):
		t.Fatalf("oracled %s printed no address within %v:\n%s", strings.Join(d.args, " "), bootTimeout, d.stderrText())
	}
	return d
}

// stderrText is what the daemon has written to stderr so far.
func (d *daemon) stderrText() string {
	b, _ := os.ReadFile(d.stderr)
	return string(b)
}

// signal delivers sig to the daemon process (not its group).
func (d *daemon) signal(sig syscall.Signal) {
	d.t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		d.t.Fatalf("signal %v: %v", sig, err)
	}
}

// exitCode waits for the daemon to exit and returns its exit code; a
// death by signal fails the test.
func (d *daemon) exitCode() int {
	d.t.Helper()
	select {
	case <-d.exited:
	case <-time.After(bootTimeout):
		d.t.Fatalf("oracled %s still running after %v:\n%s", strings.Join(d.args, " "), bootTimeout, d.stderrText())
	}
	if !d.state.Exited() {
		d.t.Fatalf("oracled %s: %v, want an exit:\n%s", strings.Join(d.args, " "), d.state, d.stderrText())
	}
	return d.state.ExitCode()
}

// kill SIGKILLs the daemon's process group and reaps the daemon.
func (d *daemon) kill() {
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
}

// get fetches d.url+path and returns the status and body.
func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get(d.url + path)
	return d.read(resp, err, "GET "+path)
}

// post sends body to d.url+path and returns the status and body.
func (d *daemon) post(path, body string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Post(d.url+path, "application/json", strings.NewReader(body))
	return d.read(resp, err, "POST "+path)
}

// read returns the status and body of a response, failing the test on a
// transport error.
func (d *daemon) read(resp *http.Response, err error, what string) (int, []byte) {
	d.t.Helper()
	if err != nil {
		d.t.Fatalf("%s: %v\n%s", what, err, d.stderrText())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("%s: %v", what, err)
	}
	return resp.StatusCode, b
}

// must is get or post (a non-empty body posts) with a 200 required.
func (d *daemon) must(path string, body ...string) []byte {
	d.t.Helper()
	code, b := 0, []byte(nil)
	if len(body) > 0 {
		code, b = d.post(path, body[0])
	} else {
		code, b = d.get(path)
	}
	if code != http.StatusOK {
		d.t.Fatalf("%s: status %d: %s", path, code, b)
	}
	return b
}

// json decodes a 200 answer of path into a generic map.
func (d *daemon) json(path string, body ...string) map[string]any {
	d.t.Helper()
	var out map[string]any
	if err := json.Unmarshal(d.must(path, body...), &out); err != nil {
		d.t.Fatalf("%s: %v", path, err)
	}
	return out
}

// stats is the daemon's /v1/stats.
func (d *daemon) stats() map[string]any { return d.json("/v1/stats") }

// eventually polls f until it reports done, failing the test after
// bootTimeout with the last reason f gave.
func eventually(t *testing.T, f func() (done bool, why string)) {
	t.Helper()
	deadline := time.Now().Add(bootTimeout)
	for {
		done, why := f()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gave up after %v: %s", bootTimeout, why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// equalBodies fails unless every path answers byte-identically on a and b.
func equalBodies(t *testing.T, a, b *daemon, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if x, y := a.must(p), b.must(p); !bytes.Equal(x, y) {
			t.Errorf("%s differs:\n%s\n%s", p, x, y)
		}
	}
}
