package vet

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core/derivative"
	"repro/internal/core/sysenv"
)

// layerFindings is the layer-discipline pass (the paper's Figure 2): it
// preprocesses every test cell with the real assembler front end and
// checks the tokens the test author actually wrote — expansion
// provenance separates them from text injected by Globals.inc defines
// or macros, so abstraction-layer machinery can never trip the checks.
func layerFindings(s *sysenv.System, tab *unitTable, opts Options) []Finding {
	globals := globalNames(tab.d)
	blocks := peripheralBlocks(tab.d)
	var out []Finding
	for _, e := range s.Envs() {
		for _, t := range e.Tests() {
			path := e.TestSourcePath(t.ID)
			base := Finding{Path: path, Module: e.Module, Test: t.ID}
			out = append(out, checkIncludes(path, t.Source, base, opts)...)
			lines, errs := expand(tab.tree, e.Module, path, t.Source, tab.d, tab.k)
			for _, err := range errs {
				if !opts.enabled(CheckBuildError) {
					break
				}
				f := base
				f.Message = "test does not preprocess: " + err.Error()
				out = append(out, finding(CheckBuildError, f))
			}
			out = append(out, checkLines(path, lines, globals, blocks, base, opts)...)
		}
	}
	return out
}

// checkIncludes scans the RAW source for .INCLUDE lines: the
// preprocessor consumes them before Expand returns, so the bypass check
// must look at the text the author wrote. Only Globals.inc — the
// abstraction layer's single entry point — is legitimate from the test
// layer.
func checkIncludes(path, src string, base Finding, opts Options) []Finding {
	if !opts.enabled(CheckBypassInclude) {
		return nil
	}
	var out []Finding
	for num, text := range strings.Split(src, "\n") {
		toks, err := asm.LexLine(path, num+1, text)
		if err != nil || len(toks) == 0 {
			continue
		}
		if toks[0].Kind != asm.TokDirective || toks[0].Text != "INCLUDE" {
			continue
		}
		if len(toks) == 2 && toks[1].Kind == asm.TokString && toks[1].Text != "Globals.inc" {
			f := base
			f.Line = num + 1
			f.Message = fmt.Sprintf("test includes %q directly; only Globals.inc is permitted", toks[1].Text)
			out = append(out, finding(CheckBypassInclude, f))
		}
	}
	return out
}

// checkLines inspects the preprocessed lines of one test cell. Only
// tokens whose Origin is the test file itself are the author's — tokens
// substituted in from the abstraction layer are exempt by construction.
func checkLines(path string, lines []asm.Line, globals map[string]bool, blocks []addrBlock, base Finding, opts Options) []Finding {
	var out []Finding
	for _, ln := range lines {
		if ln.File != path {
			continue // line physically lives in an included file
		}
		isEqu := len(ln.Toks) >= 2 && ln.Toks[0].Kind == asm.TokIdent &&
			ln.Toks[1].Kind == asm.TokDirective && ln.Toks[1].Text == "EQU"
		geometry := geometryOperands(ln.Toks)
		for i, tok := range ln.Toks {
			if tok.Origin() != path {
				continue
			}
			switch tok.Kind {
			case asm.TokIdent:
				if globals[tok.Text] && opts.enabled(CheckGlobalRef) {
					f := base
					f.Line = ln.Num
					f.Message = fmt.Sprintf("global-layer symbol %q referenced directly; re-map it in Globals.inc or wrap it in Base_Functions", tok.Text)
					out = append(out, finding(CheckGlobalRef, f))
				}
			case asm.TokNumber:
				if blk := findBlock(blocks, tok.Val); blk != nil && opts.enabled(CheckRawAddress) {
					f := base
					f.Line = ln.Num
					f.Message = fmt.Sprintf("raw register address %s lands in the %s block [0x%08X..0x%08X); use the re-mapped name", tok.Text, blk.name, blk.lo, blk.hi)
					out = append(out, finding(CheckRawAddress, f))
					continue
				}
				if geometry[i] && opts.enabled(CheckMagicField) {
					f := base
					f.Line = ln.Num
					f.Message = fmt.Sprintf("literal bit-field geometry %s; name the position/width in Globals.inc so a derivative change is a single-point edit", tok.Text)
					out = append(out, finding(CheckMagicField, f))
					continue
				}
				if isEqu && opts.AllowLocalEqu {
					continue
				}
				if tok.Val > opts.MagicThreshold || tok.Val < -opts.MagicThreshold {
					if opts.enabled(CheckMagicValue) {
						f := base
						f.Line = ln.Num
						f.Message = fmt.Sprintf("hardwired value %s; give it a name in Globals.inc", tok.Text)
						out = append(out, finding(CheckMagicValue, f))
					}
				}
			}
		}
	}
	return out
}

// bitfieldMnemonics are the instructions whose last two operands are bit
// position and field width — the Figure 6 geometry that derivative
// changes move, so it must never be written as a literal in a test.
var bitfieldMnemonics = map[string]bool{
	"INSERT": true, "INSERTX": true,
	"EXTRACT": true, "EXTRU": true, "EXTRS": true,
}

// geometryOperands returns the token indexes that are pos/width operands
// of a bitfield instruction (empty map otherwise). The mnemonic may
// follow a leading "label:" pair.
func geometryOperands(toks []asm.Token) map[int]bool {
	i := 0
	for i+1 < len(toks) && toks[i].Kind == asm.TokIdent && toks[i+1].IsPunct(":") {
		i += 2
	}
	if i >= len(toks) || toks[i].Kind != asm.TokIdent || !bitfieldMnemonics[strings.ToUpper(toks[i].Text)] {
		return nil
	}
	// Split the operand field on top-level commas; the last two operand
	// groups are pos and width.
	var groups [][]int
	var cur []int
	depth := 0
	for j := i + 1; j < len(toks); j++ {
		t := toks[j]
		if t.Kind == asm.TokPunct {
			switch t.Text {
			case "(", "[":
				depth++
			case ")", "]":
				depth--
			case ",":
				if depth == 0 {
					groups = append(groups, cur)
					cur = nil
					continue
				}
			}
		}
		cur = append(cur, j)
	}
	groups = append(groups, cur)
	if len(groups) < 4 { // rd, rs, ..., pos, width at minimum
		return nil
	}
	geo := make(map[int]bool)
	for _, g := range groups[len(groups)-2:] {
		for _, j := range g {
			geo[j] = true
		}
	}
	return geo
}

// ---- global names and peripheral blocks ----

// globalNames extracts the global-layer symbol names a test must never
// reference directly: every .EQU name in the register definitions and
// every label in the global assembler sources.
func globalNames(d *derivative.Derivative) map[string]bool {
	names := make(map[string]bool)
	for path, src := range sysenv.GlobalLayer(d) {
		isInc := strings.HasSuffix(path, ".inc")
		for num, text := range strings.Split(src, "\n") {
			toks, err := asm.LexLine(path, num+1, text)
			if err != nil || len(toks) == 0 {
				continue
			}
			if len(toks) >= 2 && toks[0].Kind == asm.TokIdent &&
				toks[1].Kind == asm.TokDirective && toks[1].Text == "EQU" {
				names[toks[0].Text] = true
				continue
			}
			if !isInc && len(toks) >= 2 && toks[0].Kind == asm.TokIdent && toks[1].IsPunct(":") {
				names[toks[0].Text] = true
			}
		}
	}
	// The entry symbol is startup plumbing, not a service a test could
	// meaningfully reach.
	delete(names, "_start")
	return names
}

// addrBlock is one peripheral register block.
type addrBlock struct {
	name   string
	lo, hi uint32 // [lo, hi)
}

// blockSpan is each peripheral block's address-decode size.
const blockSpan = 0x1000

// peripheralBlocks lists the derivative's memory-mapped register blocks.
// A literal inside any of them is a register address whatever it is
// called locally.
func peripheralBlocks(d *derivative.Derivative) []addrBlock {
	hw := d.HW
	bases := []struct {
		name string
		base uint32
	}{
		{"mailbox", hw.MboxBase},
		{"UART", hw.UartBase},
		{"NVM controller", hw.NvmcBase},
		{"timer", hw.TimerBase},
		{"interrupt controller", hw.IntcBase},
		{"watchdog", hw.WdtBase},
		{"GPIO", hw.GpioBase},
		{"MPU", hw.MpuBase},
	}
	out := make([]addrBlock, len(bases))
	for i, b := range bases {
		out[i] = addrBlock{name: b.name, lo: b.base, hi: b.base + blockSpan}
	}
	return out
}

func findBlock(blocks []addrBlock, v int64) *addrBlock {
	if v < 0 || v > 0xffffffff {
		return nil
	}
	u := uint32(v)
	for i := range blocks {
		if u >= blocks[i].lo && u < blocks[i].hi {
			return &blocks[i]
		}
	}
	return nil
}
