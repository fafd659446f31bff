// Command advm-bench is the repository benchmark. It runs the 504-cell
// regression matrix (21 tests × 4 derivatives × 6 platforms) the four ways
// users run it, through the shipped advm-regress and advm-served binaries,
// checks every sealed certification bundle byte for byte against an
// in-process reference, and prints one JSON result line. With -trace 1 it
// drives the same requests in-process through the layers' public
// functions instead and reports a per-layer breakdown.
//
// Run it from the repository root through bench/run.sh, which builds the
// binaries first:
//
//	bash bench/run.sh --workload matrix-cold --seed 1 --seconds 10 --trace 0
//
// See bench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/advm"
)

const (
	// label is the release label every request freezes under; the
	// reference bundle is sealed under the same name.
	label = "BENCH"
	// slots is the parallelism of the system under test: two matrix
	// workers in-process, or one daemon worker plus one connected slot.
	slots = 2
	// setupRuns is how many fresh set-ups a run times; setup_s is their
	// median.
	setupRuns = 5
	// minRequests is the least number of timed requests in a run: 50 leave
	// 10 samples beyond request_s_p80.
	minRequests = 50
	// tracedPairs is how many traced and untraced request pairs a traced
	// run times, whatever -seconds says. More would drift: every
	// fresh-cache matrix in one process grows the live heap by about 10 MB.
	tracedPairs = 10
)

var workloads = []string{"matrix-cold", "matrix-fill", "matrix-restart", "served-fleet"}

// bench is one benchmark run: its configuration, the seed's inputs and
// the reference outputs.
type bench struct {
	workload string
	seconds  time.Duration
	requests int    // smoke tests: fixed request count and one set-up; 0 runs by seconds and minRequests
	bin      string // directory holding advm-regress and advm-served
	out      string // directory for Chrome traces
	dir      string // this run's scratch directory
	log      io.Writer

	derivs, plats []string // seed-permuted -derivs and -platforms lists
	ref           []byte   // reference certification bundle
	cells         int      // cells per request

	mu    sync.Mutex
	stops []func() // processes to stop on exit
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the benchmark and prints its result line.
// A failed run prints no result and returns a non-zero code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "permutes the -derivs and -platforms lists the CLIs receive")
	seconds := fs.Int("seconds", 10, "how long the timed section runs at least")
	trace := fs.Int("trace", 0, "1 runs the traced in-process breakdown instead of the CLIs")
	requests := fs.Int("requests", 0, "smoke tests: one set-up and exactly this many timed requests instead of -seconds")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built advm-regress and advm-served")
	work := fs.String("work", ".bench_build", "directory for scratch files and Chrome traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "advm-bench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloads, ", "))
		return 2
	}
	for _, exe := range []string{"advm-regress", "advm-served"} {
		if _, err := os.Stat(filepath.Join(*bin, exe)); err != nil {
			fmt.Fprintf(stderr, "advm-bench: %v (build the CLIs with bench/run.sh)\n", err)
			return 2
		}
	}

	b := &bench{
		workload: *workload, seconds: time.Duration(*seconds) * time.Second,
		requests: *requests, bin: *bin, out: filepath.Join(*work, "traces"), log: stderr,
	}
	res, err := b.run(*seed, *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(stderr, "advm-bench: %s: %v\n", b.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "advm-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// run makes the seed's inputs and reference, then measures. Every process
// the run starts is stopped before it returns, also on SIGINT/SIGTERM.
func (b *bench) run(seed int64, trace bool, work string) (*result, error) {
	setTopDir(work)
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	defer os.RemoveAll(dir)
	defer b.stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			b.stopAll()
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	rng := rand.New(rand.NewSource(seed))
	for _, d := range advm.Family() {
		b.derivs = append(b.derivs, d.Name)
	}
	for _, k := range advm.AllPlatformKinds() {
		b.plats = append(b.plats, k.String())
	}
	rng.Shuffle(len(b.derivs), func(i, j int) { b.derivs[i], b.derivs[j] = b.derivs[j], b.derivs[i] })
	rng.Shuffle(len(b.plats), func(i, j int) { b.plats[i], b.plats[j] = b.plats[j], b.plats[i] })
	if err := b.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(b.log, "advm-bench: %s seed %d: -derivs %s -platforms %s, %d cells\n",
		b.workload, seed, strings.Join(b.derivs, ","), strings.Join(b.plats, ","), b.cells)
	if trace {
		return b.traced(seed)
	}
	return b.endToEnd()
}

// reference computes the bundle every request must reproduce: a serial
// in-process regression over the same permuted lists, certified with the
// default vet options under the same label.
func (b *bench) reference() error {
	ds, ks, err := b.selection()
	if err != nil {
		return err
	}
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem(label, sys)
	if err != nil {
		return err
	}
	rep, err := advm.Regress(sys, sl, advm.RegressionSpec{
		Derivatives: ds, Kinds: ks, Workers: 1,
		Cache: advm.NewBuildCache(), RunCache: advm.NewRunCache(),
	})
	if err != nil {
		return err
	}
	if !rep.AllPassed() {
		return errors.New(rep.Summary())
	}
	bundle, err := advm.Certify(sys, sl, advm.DefaultVetOptions(), rep.BundleCells())
	if err != nil {
		return err
	}
	out, err := bundle.JSON()
	if err != nil {
		return err
	}
	b.ref = append(out, '\n')
	b.cells = len(rep.Outcomes)
	return nil
}

// selection resolves the permuted name lists.
func (b *bench) selection() ([]*advm.Derivative, []advm.Kind, error) {
	var ds []*advm.Derivative
	for _, name := range b.derivs {
		d, err := advm.DerivativeByName(name)
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, d)
	}
	var ks []advm.Kind
	for _, name := range b.plats {
		for _, k := range advm.AllPlatformKinds() {
			if k.String() == name {
				ks = append(ks, k)
			}
		}
	}
	return ds, ks, nil
}

// more reports whether the timed section, which started at start, should
// issue request i: until the time is up and at least least requests ran.
func (b *bench) more(i, least int, start time.Time) bool {
	if b.requests > 0 {
		return i < b.requests
	}
	return i < least || time.Since(start) < b.seconds
}

// path names a file or directory in this run's scratch directory.
func (b *bench) path(format string, args ...any) string {
	return filepath.Join(b.dir, fmt.Sprintf(format, args...))
}

// onExit registers a stop function for a started process.
func (b *bench) onExit(stop func()) {
	b.mu.Lock()
	b.stops = append(b.stops, stop)
	b.mu.Unlock()
}

// stopAll stops every registered process, newest first. Stop functions
// are idempotent, so a signal racing the normal exit path is harmless.
func (b *bench) stopAll() {
	b.mu.Lock()
	stops := append([]func(){}, b.stops...)
	b.mu.Unlock()
	for i := len(stops) - 1; i >= 0; i-- {
		stops[i]()
	}
}

// setTopDir sets the ext4 TOPDIR flag (chattr +T) on dir, so that ext4
// spreads dir's subdirectories over block groups instead of keeping them
// near dir. On ext4 without a journal, a new inode is not taken from the
// inodes freed in the last one to six minutes: each allocation steps past
// them one at a time, and a directory's files take their inodes near the
// directory. Without the flag, every run's stores sit in the block groups
// where the runs before it deleted theirs, at up to 40 times the kernel
// time per file. Filesystems without the flag refuse it, which is harmless.
func setTopDir(dir string) {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags uint32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); e != 0 || flags&topDir != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
}
