// Command advm-served is the regression daemon: it listens on a local
// socket for regression requests and shards the matrix cells across a
// pool of workers, streaming each cell's outcome and flight records
// back to the client as it completes. The process boundary is the
// isolation: a crashed or wedged worker costs one cell, not the run.
//
// The pool spans machines. A daemon on one host accepts requests and
// runs its local worker processes; other hosts join the same pool with
// -connect. Every worker, local or remote, registers through the same
// epoch-checked handshake and heartbeats while it works. Requests are
// scheduled concurrently across the shared pool, and a worker that dies,
// wedges or vanishes with its machine costs only its in-flight cell —
// missed heartbeats break it and the rest of the pool drains the queue.
//
// With -store, every local worker writes build artifacts and run
// outcomes through to a shared persistent content-addressed store, the
// daemon serves that store to the fleet, and -connect workers
// fetch-through it over the same TCP connection protocol (misses filled
// back, payloads checksummed in transit).
//
// Usage:
//
//	advm-served -listen /tmp/advm.sock -workers 4 -store .advm-store
//	advm-served -listen tcp:0.0.0.0:7777 -workers 4 -store .advm-store
//	advm-served -connect tcp:daemon-host:7777 -workers 8 -store .advm-local
//	advm-regress -serve /tmp/advm.sock -platforms all
//
// The daemon re-executes its own binary with -worker for each local
// pool slot. -worker is internal: its stdin and stdout are one end of a
// socket pair, on which it joins the pool exactly as a -connect slot
// does — the epoch-checked hello, heartbeats, then jobs.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/advm"
)

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", "advm-served.sock", "listen address: unix socket path or TCP host:port, with optional unix:/tcp: scheme prefix")
	connect := flag.String("connect", "", "join the daemon at this address as a remote worker machine instead of serving")
	name := flag.String("name", "", "fleet name for this machine in daemon logs (default: hostname)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker processes in the pool (with -connect: worker slots contributed)")
	storeDir := flag.String("store", "", "persistent artifact store directory (with -connect: local fetch-through tier over the daemon's store)")
	historyDir := flag.String("history", "", "run-history store directory; enables longest-expected-first dispatch across requests")
	verbose := flag.Bool("v", false, "log each request and worker event")
	workerMode := flag.Bool("worker", false, "internal: run as a local pool worker speaking the worker protocol on stdin/stdout")
	flag.Parse()

	if *workerMode {
		runWorker(*storeDir)
		return
	}
	if *connect != "" {
		runAgent(*connect, *name, *workers, *storeDir)
		return
	}

	d := &advm.ShardDaemon{
		NewSystem: advm.StandardSystem,
		Workers:   *workers,
		WorkerCommand: func(int) *exec.Cmd {
			exe, err := os.Executable()
			if err != nil {
				exe = os.Args[0]
			}
			args := []string{"-worker"}
			if *storeDir != "" {
				args = append(args, "-store", *storeDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			return cmd
		},
	}
	if *verbose {
		d.Logf = log.Printf
	}
	if *historyDir != "" {
		hist, err := advm.OpenHistory(*historyDir)
		if err != nil {
			log.Fatal(err)
		}
		d.History = hist
	}
	if *storeDir != "" {
		// The daemon's own handle on the shared store, served to
		// -connect machines over store-role connections. Local workers
		// mount the same directory directly.
		store, err := advm.OpenArtifactStore(*storeDir, advm.ArtifactStoreOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		d.Store = store
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	network, address := advm.SplitShardAddr(*listen)
	if network == "unix" {
		os.Remove(address)
	}
	l, err := net.Listen(network, address)
	if err != nil {
		log.Fatal(err)
	}
	// A signal closes the listener so Serve returns and the deferred
	// pool shutdown (and unix-socket cleanup) runs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		l.Close()
	}()
	fmt.Printf("advm-served: %d workers, listening on %s %s\n", *workers, network, address)
	if *storeDir != "" {
		fmt.Printf("advm-served: persistent store at %s\n", *storeDir)
	}
	d.Serve(l)
	if network == "unix" {
		os.Remove(address)
	}
}

// runWorker is the -worker mode: one local pool slot on stdin/stdout,
// until the daemon hangs up.
func runWorker(storeDir string) {
	opts := advm.ShardWorkerOptions{NewSystem: advm.StandardSystem}
	var store *advm.ArtifactStore
	if storeDir != "" {
		var err error
		store, err = advm.OpenArtifactStore(storeDir, advm.ArtifactStoreOptions{})
		if err != nil {
			log.Fatalf("worker: %v", err)
		}
		opts.Store = store
	}
	err := advm.RunShardWorker(os.Stdin, os.Stdout, opts)
	if store != nil {
		store.Close()
	}
	if err != nil {
		log.Fatalf("worker: %v", err)
	}
}

// runAgent is the -connect mode: this machine contributes `slots`
// workers to a remote daemon's pool. Each slot registers over its own
// TCP connection (hello handshake, epoch cross-checked at the door) and
// serves jobs until the daemon hangs up. The slots share one
// fetch-through artifact backend: a store channel to the daemon's
// persistent store, optionally fronted by a local castore tier, so the
// machine warm-starts from fleet-wide work and fills daemon misses back.
func runAgent(addr, name string, slots int, storeDir string) {
	if name == "" {
		name, _ = os.Hostname()
	}
	if slots < 1 {
		slots = 1
	}
	var local *advm.ArtifactStore
	if storeDir != "" {
		var err error
		local, err = advm.OpenArtifactStore(storeDir, advm.ArtifactStoreOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer local.Close()
	}
	remote, err := advm.DialShardStore(addr, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	store := &advm.ShardFetchThrough{Remote: remote}
	if local != nil {
		store.Local = local
	}
	fmt.Printf("advm-served: joining %s with %d workers as %q\n", addr, slots, name)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := advm.ConnectShardWorker(addr, advm.ShardConnectOptions{
				WorkerOptions: advm.ShardWorkerOptions{
					NewSystem: advm.StandardSystem, Store: store,
				},
				Name: fmt.Sprintf("%s/%d", name, i),
			})
			if err != nil {
				log.Printf("slot %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}
