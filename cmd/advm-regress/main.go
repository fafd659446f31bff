// Command advm-regress freezes the shipped system environment under a
// release label and runs the regression matrix: every test cell on every
// selected derivative and platform. The paper's Section 3 discipline is
// enforced: the regression only runs against the frozen label.
//
// Usage:
//
//	advm-regress                      # family x golden
//	advm-regress -platforms all       # family x all six platforms
//	advm-regress -derivs SC88-A,SC88-SEC -platforms golden,rtl
//	advm-regress -journal run.jsonl -history .advm-history -progress
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/advm"
)

func main() {
	log.SetFlags(0)
	derivs := flag.String("derivs", "all", "comma-separated derivatives or 'all'")
	plats := flag.String("platforms", "golden", "comma-separated platforms or 'all'")
	label := flag.String("label", "SYSREG_LOCAL", "release label name")
	verbose := flag.Bool("v", false, "print each failing cell")
	junit := flag.String("junit", "", "write a JUnit XML report to this file")
	bundle := flag.String("bundle", "", "write the sealed certification bundle (traceability x vet x matrix) to this file")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent matrix cells")
	cache := flag.Bool("cache", true, "memoise assembled units and linked images by content hash")
	runCache := flag.Bool("run-cache", true, "memoise deterministic-platform run outcomes by content hash")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event timeline of the matrix run (load in Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write the telemetry metrics registry as JSON ('-' for stdout)")
	triageDir := flag.String("triage-dir", "", "replay failing cells against a reference and write first-divergence artifacts here")
	deadline := flag.Duration("deadline", 0, "per-cell wall-clock deadline; a wedged platform run is cancelled, not hung (0 = unbounded)")
	retries := flag.Int("retries", 0, "extra attempts for transiently failing cells on physical platforms (emulator/bondout/silicon)")
	quarantineAfter := flag.Int("quarantine-after", 0, "bench a cell after this many flaky regressions and skip it (0 = off)")
	breaker := flag.Int("breaker", 0, "open a platform's circuit breaker after this many consecutive transient failures (0 = off)")
	engine := flag.String("engine", "translate", "simulator execution engine for every cell (interp, predecode, translate); all are bit-identical")
	journalPath := flag.String("journal", "", "write a JSONL flight record of the matrix run to this file (render with advm-report)")
	progress := flag.Bool("progress", false, "render a live in-place status line on stderr while the matrix runs")
	historyDir := flag.String("history", "", "run-history store directory; enables longest-expected-first scheduling and progress ETAs")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	storeDir := flag.String("store", "", "persistent artifact store directory: build artifacts and run outcomes survive restarts and are shared across processes")
	serveAddr := flag.String("serve", "", "run the matrix on an advm-served daemon at this address (unix socket path or host:port) instead of in-process")
	flag.Parse()

	if *serveAddr != "" {
		runServed(servedFlags{
			addr: *serveAddr, label: *label, derivs: *derivs, plats: *plats,
			engine: *engine, verbose: *verbose, junit: *junit, bundle: *bundle,
			journalPath: *journalPath,
		})
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
		fmt.Printf("pprof serving on http://%s/debug/pprof/\n", *pprofAddr)
	}

	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem(*label, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frozen release: %s\n\n", sl)

	spec := advm.RegressionSpec{Workers: *workers, TriageDir: *triageDir, Deadline: *deadline}
	if *bundle != "" {
		// Gate with the options the certification seals: a release the
		// certifier would refuse is refused before any cell runs, and
		// Certify reuses the gate's analysis from the label.
		certOpts := advm.DefaultVetOptions()
		spec.VetOptions = &certOpts
	}
	eng, err := advm.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}
	spec.RunSpec.Engine = eng
	if *retries > 0 {
		spec.Retry = advm.RetryPolicy{
			MaxAttempts: *retries + 1,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
		}
	}
	if *quarantineAfter > 0 {
		spec.Quarantine = advm.NewQuarantine(*quarantineAfter)
	}
	if *breaker > 0 {
		spec.Breakers = advm.NewBreakerSet(*breaker, 8)
	}
	if *cache {
		spec.Cache = advm.NewBuildCache()
	}
	if *runCache {
		spec.RunCache = advm.NewRunCache()
	}
	var store *advm.ArtifactStore
	if *storeDir != "" {
		store, err = advm.OpenArtifactStore(*storeDir, advm.ArtifactStoreOptions{})
		if err != nil {
			log.Fatal(err)
		}
		advm.AttachArtifactStore(store, spec.Cache, spec.RunCache)
	}
	if *metricsOut != "" {
		spec.Metrics = advm.NewMetricsRegistry()
	}
	if *traceOut != "" {
		spec.Timeline = advm.NewTimeline()
	}
	var hist *advm.HistoryStore
	if *historyDir != "" {
		hist, err = advm.OpenHistory(*historyDir)
		if err != nil {
			log.Fatal(err)
		}
		spec.History = hist
	}
	// Flight-record sinks: the file writer, the live board, and (with
	// -v) a streamer that prints failing cells as they land. All consume
	// the one record stream, teed. The board draws on stderr and routes
	// its log lines to stdout, so -progress and -v interleave cleanly.
	var sinks []advm.JournalSink
	var jw *advm.JournalWriter
	var jf *os.File
	if *journalPath != "" {
		jf, err = os.Create(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		jw = advm.NewJournalWriter(jf)
		sinks = append(sinks, jw)
	}
	var prog *advm.MatrixProgress
	if *progress {
		prog = advm.NewMatrixProgress(os.Stderr)
		prog.SetLogWriter(os.Stdout)
		if hist != nil {
			prog.SetEstimator(func(module, test, deriv, platform string) (int64, bool) {
				return hist.Estimate(advm.CellKey(module, test, deriv, platform))
			})
		}
		sinks = append(sinks, prog)
		if *verbose {
			sinks = append(sinks, advm.JournalSinkFunc(func(r advm.JournalRecord) {
				if r.Kind == advm.JournalOutcome && r.Status != "passed" {
					prog.Logf("FAIL %s: %s %s %s", r.CellID(),
						r.Status, r.Reason, r.BuildErr)
				}
			}))
		}
	}
	if len(sinks) > 0 {
		spec.Journal = advm.TeeJournal(sinks...)
	}
	if *derivs != "all" {
		for _, name := range strings.Split(*derivs, ",") {
			d, err := advm.DerivativeByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			spec.Derivatives = append(spec.Derivatives, d)
		}
	}
	if *plats != "all" {
		for _, name := range strings.Split(*plats, ",") {
			k, err := advm.ParseKind(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			spec.Kinds = append(spec.Kinds, k)
		}
	}

	t0 := time.Now()
	rep, err := advm.Regress(sys, sl, spec)
	wall := time.Since(t0)
	if prog != nil {
		prog.Done()
	}
	if err != nil {
		log.Fatal(err)
	}
	printReport(rep)
	fmt.Printf("wall time: %s (%d workers)\n", wall.Round(time.Millisecond), *workers)
	if spec.Cache != nil {
		fmt.Printf("build cache: %s\n", spec.Cache.Stats())
	}
	if spec.RunCache != nil {
		fmt.Printf("run cache: %s\n", spec.RunCache.Stats())
	}
	if store != nil {
		fmt.Printf("artifact store: %s\n", store.Stats())
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if ps := advm.PredecodeTotals(); ps.Hits+ps.Slow > 0 {
		fmt.Printf("predecode: %s\n", ps)
	}
	if ts := advm.TranslateTotals(); ts.Executed > 0 {
		fmt.Printf("translate: %s\n", ts)
	}
	if *deadline > 0 || *retries > 0 || *quarantineAfter > 0 || *breaker > 0 {
		var attempts, retried, flaky, cancelled, backoff int64
		quarantined := 0
		for _, o := range rep.Outcomes {
			attempts += int64(o.Attempts)
			if o.Attempts > 1 {
				retried++
			}
			if o.Flaky {
				flaky++
			}
			if o.Quarantined {
				quarantined++
			}
			if o.Reason == advm.StopCancelled || o.BuildErr == "cancelled" {
				cancelled++
			}
			backoff += o.BackoffNanos
		}
		fmt.Printf("resilience: %d attempts over %d cells (%d retried, %d flaky, %d cancelled), backoff %s\n",
			attempts, len(rep.Outcomes), retried, flaky, cancelled,
			time.Duration(backoff).Round(time.Millisecond))
		if spec.Quarantine != nil {
			fmt.Printf("quarantine: %d cells benched, %d skipped this run\n",
				spec.Quarantine.Size(), quarantined)
		}
		if spec.Breakers != nil {
			sum := spec.Breakers.Summary()
			if sum == "" {
				sum = "all closed, no trips"
			}
			fmt.Printf("breakers: %s\n", sum)
		}
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			log.Fatal(err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal written to %s (%d records); render with advm-report\n", *journalPath, jw.Count())
	}
	if hist != nil {
		if err := hist.Save(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("history: %d cells tracked in %s\n", hist.Len(), *historyDir)
	}
	writeReports(sys, sl, rep, *junit, *bundle)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.Timeline.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (%d events)\n", *traceOut, spec.Timeline.Len())
	}
	if *metricsOut != "" {
		w := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := spec.Metrics.WriteJSON(w); err != nil {
			log.Fatal(err)
		}
		if *metricsOut != "-" {
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}
	if !rep.AllPassed() {
		// With -progress the -v streamer already printed failures live.
		if *verbose && !*progress {
			for _, f := range rep.Failures() {
				fmt.Printf("FAIL %s/%s on %s/%s: %s %s %s\n",
					f.Module, f.Test, f.Derivative, f.Platform, f.Reason, f.Detail, f.BuildErr)
				if f.Triage != nil {
					fmt.Printf("  %s\n", f.Triage.Summary())
				}
			}
		}
		os.Exit(1)
	}
}

// servedFlags is the subset of the flag surface that travels to an
// advm-served daemon.
type servedFlags struct {
	addr, label, derivs, plats, engine string
	verbose                            bool
	junit, bundle, journalPath         string
}

// runServed is the -serve client path: the matrix executes on the
// daemon's worker pool, and this process reassembles the streamed
// results into the same report, journal, JUnit, and bundle outputs the
// in-process run produces. Execution policy (workers, caches, retries,
// deadlines, triage) belongs to the daemon, so those flags are rejected
// up front by main.
func runServed(f servedFlags) {
	// Local execution-policy flags make no sense against a remote pool;
	// fail loudly rather than silently ignoring them.
	incompatible := map[string]string{
		"workers":          "the daemon's -workers sets the pool size",
		"cache":            "the daemon's workers own their caches",
		"run-cache":        "the daemon's workers own their caches",
		"store":            "pass -store to advm-served instead",
		"history":          "pass -history to advm-served instead",
		"triage-dir":       "triage replay is not available over -serve",
		"deadline":         "per-cell deadlines are not available over -serve",
		"retries":          "retry policy is not available over -serve",
		"quarantine-after": "quarantine is not available over -serve",
		"breaker":          "circuit breakers are not available over -serve",
		"trace-out":        "the timeline lives in the worker processes",
		"metrics-out":      "the metrics registry lives in the worker processes",
		"progress":         "use -v to stream failing cells over -serve",
		"pprof":            "profile the daemon process instead",
	}
	flag.Visit(func(fl *flag.Flag) {
		if why, ok := incompatible[fl.Name]; ok {
			log.Fatalf("-%s cannot be combined with -serve: %s", fl.Name, why)
		}
	})
	if _, err := advm.ParseEngine(f.engine); err != nil {
		log.Fatal(err)
	}
	req := advm.ShardRequest{Label: f.label, Engine: f.engine}
	if f.derivs != "all" {
		for _, name := range strings.Split(f.derivs, ",") {
			req.Derivs = append(req.Derivs, strings.TrimSpace(name))
		}
	}
	if f.plats != "all" {
		for _, name := range strings.Split(f.plats, ",") {
			req.Platforms = append(req.Platforms, strings.TrimSpace(name))
		}
	}

	// Freeze the same content locally: if the daemon's epoch differs,
	// its verdicts describe someone else's sources.
	sys := advm.StandardSystem()
	sl, err := advm.FreezeSystem(f.label, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frozen release: %s\n\n", sl)
	if f.bundle != "" {
		// As in-process: refuse what the certifier would refuse before
		// the daemon spends a cell on it.
		if _, err := advm.Preflight(sys, sl, advm.DefaultVetOptions()); err != nil {
			log.Fatal(err)
		}
	}

	var onResult func(*advm.ShardResult)
	if f.verbose {
		onResult = func(r *advm.ShardResult) {
			for _, rec := range r.Records {
				if rec.Kind == advm.JournalOutcome && rec.Status != "passed" {
					fmt.Printf("FAIL %s (worker %d): %s %s %s\n",
						rec.CellID(), r.Worker, rec.Status, rec.Reason, rec.BuildErr)
				}
			}
		}
	}
	t0 := time.Now()
	reply, err := advm.ShardRegress(f.addr, req, onResult)
	wall := time.Since(t0)
	if err != nil {
		log.Fatal(err)
	}
	if reply.Plan.Epoch != sl.Epoch() {
		log.Fatalf("epoch drift: daemon froze %s, local content is %s — results discarded",
			reply.Plan.Epoch, sl.Epoch())
	}
	rep := reply.Report()
	printReport(rep)
	fmt.Printf("wall time: %s (%d worker processes on %s, daemon wall %s)\n",
		wall.Round(time.Millisecond), reply.Plan.Workers, f.addr,
		time.Duration(reply.Done.WallNs).Round(time.Millisecond))
	if f.journalPath != "" {
		jf, err := os.Create(f.journalPath)
		if err != nil {
			log.Fatal(err)
		}
		jw := advm.NewJournalWriter(jf)
		for _, r := range reply.Journal {
			jw.Emit(r)
		}
		if err := jw.Close(); err != nil {
			log.Fatal(err)
		}
		if err := jf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("journal written to %s (%d records); render with advm-report\n", f.journalPath, jw.Count())
	}
	writeReports(sys, sl, rep, f.junit, f.bundle)
	if !rep.AllPassed() {
		os.Exit(1)
	}
}

// printReport prints the head of both paths' output: the outcome table,
// the summary, and each platform kind's build and run time.
func printReport(rep *advm.RegressionReport) {
	fmt.Println(rep.Table())
	fmt.Println(rep.Summary())
	for _, kt := range rep.TimesByKind() {
		fmt.Printf("  %-10s %3d cells  build %8.1f ms  run %8.1f ms\n",
			kt.Kind, kt.Cells, float64(kt.BuildNanos)/1e6, float64(kt.RunNanos)/1e6)
	}
}

// writeReports writes the JUnit report and the sealed certification
// bundle of a finished matrix, each when its path is set.
func writeReports(sys *advm.System, sl *advm.SystemLabel, rep *advm.RegressionReport, junit, bundle string) {
	if junit != "" {
		f, err := os.Create(junit)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJUnit(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("junit report written to %s\n", junit)
	}
	if bundle != "" {
		b, err := advm.Certify(sys, sl, advm.DefaultVetOptions(), rep.BundleCells())
		if err != nil {
			log.Fatal(err)
		}
		out, err := b.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(bundle, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("certification bundle written to %s (seal %s..)\n", bundle, b.Hash[:12])
	}
}
