// Command advm-asm assembles SC88 assembler source files from disk,
// links them, and either dumps the image or runs it on a platform.
//
// Usage:
//
//	advm-asm prog.asm                         # assemble + link, print image map
//	advm-asm -D DERIV_B -l prog.lst prog.asm  # with defines and a listing
//	advm-asm -run golden prog.asm             # run the linked image
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/advm"
	"repro/internal/isa"
)

// disassemble prints the text segment instruction by instruction with
// source attribution from the image's line table.
func disassemble(img *advm.Image, d *advm.Derivative) {
	for _, seg := range img.Segments {
		if seg.Addr != d.HW.RomBase {
			continue
		}
		fmt.Println("disassembly:")
		words := make([]uint32, len(seg.Data)/4)
		for i := range words {
			words[i] = uint32(seg.Data[i*4]) | uint32(seg.Data[i*4+1])<<8 |
				uint32(seg.Data[i*4+2])<<16 | uint32(seg.Data[i*4+3])<<24
		}
		for i := 0; i < len(words); {
			addr := seg.Addr + uint32(i*4)
			in, size, ok := isa.Decode(words[i:])
			if !ok {
				fmt.Printf("  0x%08x  .word 0x%08x\n", addr, words[i])
				i++
				continue
			}
			loc := ""
			if file, line, found := img.SourceAt(addr); found {
				loc = fmt.Sprintf("  ; %s:%d", file, line)
			}
			fmt.Printf("  0x%08x  %-32s%s\n", addr, in.String(), loc)
			i += size
		}
	}
}

// dirFS resolves includes relative to each source file's directory.
type dirFS struct{ dir string }

func (d dirFS) ReadFile(name string) ([]byte, error) {
	if filepath.IsAbs(name) {
		return os.ReadFile(name)
	}
	return os.ReadFile(filepath.Join(d.dir, name))
}

type defineList map[string]string

func (d defineList) String() string { return fmt.Sprint(map[string]string(d)) }
func (d defineList) Set(v string) error {
	name, val, _ := strings.Cut(v, "=")
	d[name] = val
	return nil
}

func main() {
	log.SetFlags(0)
	defs := defineList{}
	flag.Var(defs, "D", "predefine a symbol (NAME or NAME=value); repeatable")
	listing := flag.String("l", "", "write a listing file")
	runOn := flag.String("run", "", "run the image on a platform (golden, rtl, ...)")
	deriv := flag.String("deriv", "SC88-A", "derivative whose memory map to link for")
	entry := flag.String("entry", "", "entry symbol (default _start, then _main)")
	dis := flag.Bool("dis", false, "disassemble the linked text segment")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: advm-asm [flags] file.asm...")
	}

	d, err := advm.DerivativeByName(*deriv)
	if err != nil {
		log.Fatal(err)
	}

	var listW *os.File
	if *listing != "" {
		listW, err = os.Create(*listing)
		if err != nil {
			log.Fatal(err)
		}
		defer listW.Close()
	}

	var objects []*advm.Object
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		opts := advm.AsmOptions{
			Defines:  defs,
			Resolver: dirFS{dir: filepath.Dir(path)},
		}
		if listW != nil {
			opts.Listing = listW
		}
		o, err := advm.Assemble(filepath.Base(path), string(src), opts)
		if err != nil {
			log.Fatal(err)
		}
		objects = append(objects, o)
		fmt.Printf("assembled %s: %d text bytes, %d data bytes, %d symbols, %d relocs\n",
			path, len(o.Text), len(o.Data), len(o.Symbols), len(o.Relocs))
	}

	cfg := advm.LinkFor(d)
	if *entry != "" {
		cfg.Entry = *entry
	} else {
		cfg.Entry = "" // default _start/_main search
	}
	img, err := advm.LinkObjects(cfg, objects...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linked: entry=0x%08x\n", img.Entry)
	for _, seg := range img.Segments {
		fmt.Printf("  segment 0x%08x..0x%08x (%d bytes)\n",
			seg.Addr, seg.Addr+uint32(len(seg.Data)), len(seg.Data))
	}
	var names []string
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s 0x%08x\n", n, img.Symbols[n])
	}

	if *dis {
		disassemble(img, d)
	}
	if *runOn == "" {
		return
	}
	kind, err := advm.ParseKind(*runOn)
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
	res, err := p.Run(advm.RunSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run on %s: reason=%s mbox=0x%08X passed=%v insts=%d cycles=%d\n",
		res.Platform, res.Reason, res.MboxResult, res.Passed(), res.Instructions, res.Cycles)
	if res.Console != "" {
		fmt.Printf("console: %q\n", res.Console)
	}
	if !res.Passed() && res.Reason != "halt" {
		os.Exit(1)
	}
}
