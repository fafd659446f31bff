// Command advm-trace builds one test cell of the shipped ADVM system
// environment, runs it on a tracing platform with the structured
// telemetry event stream armed, and renders the captured events — the
// command-line window onto the trace port each platform of the speed
// ladder exposes (fully on the golden model, at reduced fidelity on
// RTL/gate and bondout, not at all on the accelerator or product
// silicon, where it exits with ErrNoTrace).
//
// Usage:
//
//	advm-trace -module UART -test TEST_UART_TX_IDLE -platform golden
//	advm-trace -module NVM -test TEST_NVM_ERASE -kinds inst,reg -format jsonl
//	advm-trace -module UART -test TEST_UART_TX_IDLE -ring 64   # last 64 events only
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/advm"
)

func main() {
	log.SetFlags(0)
	module := flag.String("module", "NVM", "module environment (NVM, UART, REGISTER)")
	test := flag.String("test", "", "test cell ID; empty lists the module's test plan")
	deriv := flag.String("deriv", "SC88-A", "derivative (SC88-A/-B/-C/-SEC)")
	plat := flag.String("platform", "golden", "platform (must have a trace port)")
	kinds := flag.String("kinds", "all", "event kinds: comma-separated inst,mem,reg,irq,trap,uart, or 'all'")
	format := flag.String("format", "text", "output format: text or jsonl")
	out := flag.String("out", "-", "output file ('-' for stdout)")
	ring := flag.Int("ring", 0, "keep only the last N events in a bounded ring (0 = stream everything)")
	maxInsts := flag.Uint64("max-insts", 0, "instruction budget (0 = default)")
	flag.Parse()

	sys := advm.StandardSystem()
	e, ok := sys.Env(*module)
	if !ok {
		log.Fatalf("no module environment %q (have %s)", *module, strings.Join(sys.Modules(), ", "))
	}
	if *test == "" {
		fmt.Print(e.TestPlan())
		return
	}
	d, err := advm.DerivativeByName(*deriv)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := advm.ParseKind(*plat)
	if err != nil {
		log.Fatal(err)
	}
	mask, err := advm.ParseEventKinds(*kinds)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	emit := func(ev advm.Event) {
		if *format == "jsonl" {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			bw.Write(b)
			bw.WriteByte('\n')
			return
		}
		fmt.Fprintln(bw, ev.String())
	}

	spec := advm.RunSpec{MaxInstructions: *maxInsts, EventMask: mask}
	var rb *advm.TraceRing
	if *ring > 0 {
		rb = advm.NewTraceRing(*ring)
		spec.Events = rb
	} else {
		spec.Events = telemetrySink(emit)
	}

	res, err := sys.RunTest(*module, *test, d, kind, spec)
	if err != nil {
		log.Fatal(err) // includes ErrNoTrace on non-tracing platforms
	}
	if rb != nil {
		for _, ev := range rb.Events() {
			emit(ev)
		}
		if rb.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "ring: kept last %d of %d events (%d dropped)\n",
				rb.Len(), rb.Total(), rb.Dropped())
		}
	}
	fmt.Fprintf(os.Stderr, "%s/%s on %s/%s: passed=%v reason=%s insts=%d cycles=%d\n",
		*module, *test, d.Name, kind, res.Passed(), res.Reason, res.Instructions, res.Cycles)
	if !res.Passed() {
		bw.Flush()
		os.Exit(1)
	}
}

// telemetrySink adapts a print function to an EventSink.
type telemetrySink func(advm.Event)

// Emit implements advm.EventSink; it never aborts the run.
func (s telemetrySink) Emit(ev advm.Event) bool { s(ev); return true }
