package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one measured advm-regress process.
type sample struct {
	wall, cpu float64 // seconds: exec to wait, and user+sys from wait4
	sys       float64 // seconds of cpu spent in the kernel
	rssKB     int64   // ru_maxrss
	ok        bool    // exit 0 and a bundle identical to the reference
	why       string  // what failed when !ok
	stdout    string
}

// endToEnd times fresh set-ups, then closed-loop requests: one client,
// one advm-regress process in flight, each timed from exec to wait.
func (b *bench) endToEnd() (*result, error) {
	var (
		setups []float64
		timed  []string // the flags of every timed request
		fl     *fleet
	)
	runs := setupRuns
	if b.requests > 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		var err error
		switch b.workload {
		case "matrix-cold":
			timed = matrixFlags("")
			_, err = b.mustRegress(timed...)
		case "matrix-fill":
			_, err = b.mustRegress(matrixFlags(b.path("setup-store-%d", i))...)
		case "matrix-restart":
			timed = matrixFlags(b.path("store-%d", i))
			_, err = b.mustRegress(timed...)
		case "served-fleet":
			if fl != nil {
				fl.stop()
			}
			fl, err = b.startFleet(b.path("fleet-%d", i))
			if fl != nil {
				timed = []string{"-serve", fl.addr}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var walls, cpus, syss, rss []float64
	failed := 0
	var fleetCPU float64
	if fl != nil {
		fleetCPU = -fl.cpuSeconds()
	}
	start := time.Now()
	for i := 0; b.more(i, minRequests, start); i++ {
		args := timed
		if b.workload == "matrix-fill" {
			// A fresh, empty store per request, as in the first run of a
			// new release epoch.
			args = matrixFlags(b.path("fill-%d", i))
		}
		s, err := b.regress(args...)
		if err != nil {
			return nil, err
		}
		if !s.ok {
			failed++
			fmt.Fprintf(b.log, "advm-bench: request %d failed: %s\n", i, s.why)
		}
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		syss = append(syss, s.sys)
		rss = append(rss, float64(s.rssKB)/1024)
	}
	n := float64(len(walls))
	v := map[string]float64{
		"setup_s":           median(setups),
		"request_s_p50":     median(walls),
		"request_s_p80":     quantile(walls, 0.8),
		"cells_per_s":       float64(b.cells) * n / sum(walls),
		"cpu_s_per_request": median(cpus),
		"peak_rss_mb":       median(rss),
	}
	if fl != nil {
		// The served system is more than the client: add what the daemon,
		// its worker and the connected machine spent and peaked at.
		fleetCPU += fl.cpuSeconds()
		v["cpu_s_per_request"] += fleetCPU / n
		v["peak_rss_mb"] += fl.hwmMB()
	}
	// The reference passes every cell, so a request whose bundle matches
	// it passed every cell too, and a failed request fails all of them.
	fmt.Fprintf(b.log, "advm-bench: %d requests (%.0f beyond p80), %d failed, failed_frac %.4f, %.1f s timed, client sys cpu p50 %.3f s, set-ups %.3f s\n",
		len(walls), 0.2*n, failed, float64(failed)/n, time.Since(start).Seconds(), median(syss), setups)
	ms, err := report(endToEnd, v)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: len(walls), Failed: failed, Metrics: ms}, nil
}

// regress runs one advm-regress process over the seed's matrix with the
// given extra flags and checks its bundle against the reference. The
// error is for the benchmark's own failures; a failing request is a
// sample with ok unset.
func (b *bench) regress(extra ...string) (sample, error) {
	bundle := b.path("bundle.json")
	os.Remove(bundle)
	args := append([]string{
		"-derivs", strings.Join(b.derivs, ","), "-platforms", strings.Join(b.plats, ","),
		"-label", label, "-bundle", bundle,
	}, extra...)
	cmd := exec.Command(filepath.Join(b.bin, "advm-regress"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(t0).Seconds(), stdout: stdout.String()}
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return s, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.sys = tvSeconds(ru.Stime)
		s.cpu = tvSeconds(ru.Utime) + s.sys
		s.rssKB = ru.Maxrss
	}
	switch got, rerr := os.ReadFile(bundle); {
	case err != nil:
		s.why = fmt.Sprintf("%v: %s", err, lastLine(stderr.String()))
	case rerr != nil:
		s.why = rerr.Error()
	case !bytes.Equal(got, b.ref):
		s.why = "bundle differs from the reference"
	default:
		s.ok = true
	}
	return s, nil
}

// matrixFlags are the in-process matrix flags of a request: two workers,
// and the persistent store at store unless it is empty.
func matrixFlags(store string) []string {
	flags := []string{"-workers", strconv.Itoa(slots)}
	if store != "" {
		flags = append(flags, "-store", store)
	}
	return flags
}

// mustRegress is regress for set-up steps, where a failed request is an
// error.
func (b *bench) mustRegress(extra ...string) (sample, error) {
	s, err := b.regress(extra...)
	if err == nil && !s.ok {
		err = errors.New(s.why)
	}
	return s, err
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// fleet is a served system: an advm-served daemon with one local worker
// process and a persistent store, plus one advm-served -connect machine
// contributing one TCP slot with a local fetch-through store tier.
type fleet struct {
	addr            string
	daemon, machine *exec.Cmd
	joined          *logWatch
	once            sync.Once
}

// startFleet starts a fresh fleet under dir and warms it: set-up ends
// when a request's results came from both slots.
func (b *bench) startFleet(dir string) (*fleet, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	served := filepath.Join(b.bin, "advm-served")
	f := &fleet{addr: fmt.Sprintf("tcp:127.0.0.1:%d", port), joined: newLogWatch("joined")}
	// -v makes the daemon log the machine's registration, which is how
	// set-up knows both slots are in the pool before the warm-up request.
	f.daemon = exec.Command(served, "-listen", f.addr, "-workers", "1",
		"-store", filepath.Join(dir, "store"), "-v")
	f.daemon.Stderr = f.joined
	machineStore := filepath.Join(dir, "machine-store")
	f.machine = exec.Command(served, "-connect", f.addr, "-workers", "1",
		"-name", "bench-machine", "-store", machineStore)
	b.onExit(f.stop)
	for _, cmd := range []*exec.Cmd{f.daemon, f.machine} {
		// Own process group, so stop can reach the daemon's worker too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		cmd.WaitDelay = 5 * time.Second
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, err
		}
	}
	select {
	case <-f.joined.seen:
	case <-time.After(30 * time.Second):
		f.stop()
		return nil, fmt.Errorf("machine did not join the daemon: %s", f.joined.tail())
	}
	for attempt := 1; ; attempt++ {
		s, err := b.mustRegress("-serve", f.addr)
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
		// Plan.Workers counts both slots, and the machine's own store tier
		// holds entries once it has run cells.
		if strings.Contains(s.stdout, fmt.Sprintf("(%d worker processes", slots)) && hasFiles(machineStore) {
			return f, nil
		}
		if attempt == 3 {
			f.stop()
			return nil, fmt.Errorf("warm-up requests did not reach both slots")
		}
	}
}

// stop ends the machine, then the daemon (which closes its worker), and
// waits for both. A process still running after its grace period is
// killed with its process group.
func (f *fleet) stop() {
	f.once.Do(func() {
		for _, cmd := range []*exec.Cmd{f.machine, f.daemon} {
			if cmd.Process == nil {
				continue
			}
			cmd.Process.Signal(syscall.SIGTERM)
			done := make(chan struct{})
			go func() {
				cmd.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
				<-done
			}
			// Anything left in the group (a worker outliving its daemon).
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
	})
}

// pids lists the fleet's live processes: daemon, its worker children and
// the machine.
func (f *fleet) pids() []int {
	d, m := f.daemon.Process.Pid, f.machine.Process.Pid
	pids := []int{d, m}
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if st, ok := procStat(pid); ok && st.ppid == d {
			pids = append(pids, pid)
		}
	}
	return pids
}

// cpuSeconds sums user+sys time of the fleet's processes so far.
func (f *fleet) cpuSeconds() float64 {
	t := 0.0
	for _, pid := range f.pids() {
		if st, ok := procStat(pid); ok {
			t += st.cpu
		}
	}
	return t
}

// hwmMB sums the fleet processes' peak resident set (VmHWM).
func (f *fleet) hwmMB() float64 {
	t := 0.0
	for _, pid := range f.pids() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				t += kb / 1024
			}
		}
	}
	return t
}

type stat struct {
	ppid int
	cpu  float64 // utime+stime, seconds
}

// procStat reads /proc/<pid>/stat. Times are in clock ticks, which
// Linux exposes to user space at a fixed 100 per second.
func procStat(pid int) (stat, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return stat{}, false
	}
	// Fields after the parenthesised command name: state ppid ... with
	// utime and stime the 12th and 13th.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return stat{}, false
	}
	ppid, _ := strconv.Atoi(f[1])
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return stat{ppid: ppid, cpu: (ut + st) / 100}, true
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// hasFiles reports whether the directory tree under dir holds a file.
func hasFiles(dir string) bool {
	found := false
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	return found
}

// logWatch is a process's stderr: it keeps the tail for error messages
// and closes seen the first time a line contains the watched word.
type logWatch struct {
	word string
	seen chan struct{}

	mu   sync.Mutex
	buf  []byte
	done bool
}

func newLogWatch(word string) *logWatch {
	return &logWatch{word: word, seen: make(chan struct{})}
}

func (w *logWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.done && bytes.Contains(w.buf, []byte(w.word)) {
		w.done = true
		close(w.seen)
	}
	if len(w.buf) > 4096 {
		w.buf = append([]byte(nil), w.buf[len(w.buf)-1024:]...)
	}
	return len(p), nil
}

func (w *logWatch) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return lastLine(string(w.buf))
}
