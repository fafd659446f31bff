// Command advm-run builds and runs one test cell of the shipped ADVM
// system environment on a chosen derivative and platform.
//
// Usage:
//
//	advm-run -module NVM -test TEST_NVM_ERASE -deriv SC88-B -platform rtl [-trace]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/advm"
	"repro/internal/cover"
)

func main() {
	log.SetFlags(0)
	module := flag.String("module", "NVM", "module environment (NVM, UART, REGISTER)")
	test := flag.String("test", "", "test cell ID; empty lists the module's test plan")
	deriv := flag.String("deriv", "SC88-A", "derivative (SC88-A/-B/-C/-SEC)")
	plat := flag.String("platform", "golden", "platform (golden, rtl, gate, emulator, bondout, silicon)")
	trace := flag.Bool("trace", false, "print an instruction trace (tracing platforms only)")
	coverage := flag.Bool("cover", false, "report ISA coverage of the run (tracing platforms only)")
	maxInsts := flag.Uint64("max-insts", 0, "instruction budget (0 = default)")
	engine := flag.String("engine", "translate", "simulator execution engine (interp, predecode, translate); all are bit-identical")
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

	eng, err := advm.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	spec := advm.RunSpec{MaxInstructions: *maxInsts, Engine: eng}
	if *trace {
		spec.Trace = func(r advm.TraceRecord) {
			fmt.Printf("  0x%08x  %-28s %s:%d\n", r.PC, r.Disasm, r.File, r.Line)
		}
	}

	var cov *cover.Coverage
	var res *advm.Result
	if *coverage {
		img, err := sys.BuildTest(*module, *test, d, kind)
		if err != nil {
			log.Fatal(err)
		}
		p, err := advm.NewPlatform(kind, d)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Load(img); err != nil {
			log.Fatal(err)
		}
		cov = cover.New()
		prev := spec.Trace
		covTrace := cov.Tracer(p.SoC())
		spec.Trace = func(r advm.TraceRecord) {
			covTrace(r)
			if prev != nil {
				prev(r)
			}
		}
		res, err = p.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		res, err = sys.RunTest(*module, *test, d, kind, spec)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("test      : %s/%s\n", *module, *test)
	fmt.Printf("target    : %s on %s\n", d.Name, res.Platform)
	fmt.Printf("verdict   : passed=%v (reason=%s, mailbox=0x%08X)\n", res.Passed(), res.Reason, res.MboxResult)
	fmt.Printf("work      : %d instructions, %d cycles\n", res.Instructions, res.Cycles)
	if res.Console != "" {
		fmt.Printf("console   : %q\n", res.Console)
	}
	if len(res.Checkpoints) > 0 {
		fmt.Printf("checkpts  : %v\n", res.Checkpoints)
	}
	if res.Detail != "" {
		fmt.Printf("detail    : %s\n", res.Detail)
	}
	if cov != nil {
		fmt.Print(cov.Report())
	}
	if !res.Passed() {
		os.Exit(1)
	}
}
