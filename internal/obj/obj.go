// Package obj defines the SC88 relocatable object format, the linker, and
// the loadable memory image produced for the execution platforms. Each
// assembler source file becomes one Object; the linker lays the objects'
// sections out over the SoC memory map, resolves cross-object symbols
// (base functions, embedded-software routines, trap handlers), and applies
// relocations.
package obj

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Section identifies one of the three linkable sections.
type Section uint8

// Sections.
const (
	SecText Section = iota
	SecData
	SecBss
	numSections
)

func (s Section) String() string {
	switch s {
	case SecText:
		return "text"
	case SecData:
		return "data"
	case SecBss:
		return "bss"
	}
	return "sec?"
}

// RelocKind identifies how a relocation patches its target.
type RelocKind uint8

// Relocation kinds.
const (
	// RelAbs32 patches a 32-bit little-endian word with sym+addend.
	RelAbs32 RelocKind = iota
	// RelBr16 patches the low 16 bits of an instruction base word with
	// the signed word displacement from the instruction's successor to
	// sym+addend. Target and site must land in the same section.
	RelBr16
)

func (k RelocKind) String() string {
	switch k {
	case RelAbs32:
		return "abs32"
	case RelBr16:
		return "br16"
	}
	return "reloc?"
}

// Symbol is a defined symbol: a label or an absolute constant.
type Symbol struct {
	Name string
	// Section is the section the symbol is defined in; SecBss offsets
	// address zero-initialised storage. Absolute symbols use Abs=true.
	Section Section
	Off     uint32
	Abs     bool
	Value   int64 // for absolute symbols
}

// Reloc is a pending patch in a section.
type Reloc struct {
	Section Section
	Off     uint32
	Kind    RelocKind
	Sym     string
	Addend  int64
}

// LineInfo maps a text-section offset to its source location.
type LineInfo struct {
	Off  uint32
	File string
	Line int
}

// Object is one assembled translation unit.
type Object struct {
	Name    string
	Text    []byte
	Data    []byte
	BssSize uint32
	Symbols []Symbol
	Relocs  []Reloc
	Lines   []LineInfo
}

// Segment is a contiguous span of initialised bytes in a linked image.
type Segment struct {
	Addr uint32
	Data []byte
}

// Image is a fully linked, loadable program.
type Image struct {
	Entry    uint32
	Segments []Segment
	// Symbols maps every global symbol to its final address (or absolute
	// value for Abs symbols).
	Symbols map[string]uint32
	// Lines maps text addresses back to source, for tracing platforms.
	Lines []LineInfo
	// BssAddr/BssSize locate zero-initialised storage the loader clears.
	BssAddr, BssSize uint32

	// derived holds values later layers compute from the image (the
	// simulators' predecoded ROM tables) so that they live exactly as
	// long as the image does; see Derived.
	derived sync.Map
}

// Derived returns the value stored on the image under key, storing
// build() there on first use. Concurrent first uses may each call build;
// every caller gets the one value kept. A linked image never changes,
// which is what makes a value derived from it safe to share.
func (img *Image) Derived(key any, build func() any) any {
	if v, ok := img.derived.Load(key); ok {
		return v
	}
	v, _ := img.derived.LoadOrStore(key, build())
	return v
}

// SymbolAddr looks up a symbol address in the image.
func (img *Image) SymbolAddr(name string) (uint32, bool) {
	a, ok := img.Symbols[name]
	return a, ok
}

// SourceAt returns the source location covering the given text address.
func (img *Image) SourceAt(addr uint32) (file string, line int, ok bool) {
	// Lines are sorted by Off (absolute address after linking).
	i := sort.Search(len(img.Lines), func(i int) bool { return img.Lines[i].Off > addr })
	if i == 0 {
		return "", 0, false
	}
	li := img.Lines[i-1]
	return li.File, li.Line, true
}

// LinkConfig controls image layout.
type LinkConfig struct {
	// TextBase is where the concatenated text sections start (ROM).
	TextBase uint32
	// DataBase is where data+bss start (RAM).
	DataBase uint32
	// Entry is the entry symbol; defaults to "_start" then "_main".
	Entry string
}

// LinkError reports one or more link failures.
type LinkError struct {
	Problems []string
}

func (e *LinkError) Error() string {
	if len(e.Problems) == 1 {
		return "link: " + e.Problems[0]
	}
	return fmt.Sprintf("link: %d problems, first: %s", len(e.Problems), e.Problems[0])
}

// Link combines objects into an image.
func Link(cfg LinkConfig, objects ...*Object) (*Image, error) {
	var problems []string
	fail := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Assign each object's section base addresses.
	type placed struct {
		obj  *Object
		base [numSections]uint32
	}
	align4 := func(v uint32) uint32 { return (v + 3) &^ 3 }
	textCur, dataCur := cfg.TextBase, cfg.DataBase
	places := make([]placed, len(objects))
	for i, o := range objects {
		places[i].obj = o
		places[i].base[SecText] = textCur
		textCur = align4(textCur + uint32(len(o.Text)))
		places[i].base[SecData] = dataCur
		dataCur = align4(dataCur + uint32(len(o.Data)))
	}
	bssBase := dataCur
	bssCur := bssBase
	for i, o := range objects {
		places[i].base[SecBss] = bssCur
		bssCur = align4(bssCur + o.BssSize)
	}

	// Global symbol table. Absolute symbols (constant EQUs) may be
	// defined by several objects when they share an include file; they
	// merge as long as the values agree. Labels must be unique.
	syms := make(map[string]uint32)
	symDef := make(map[string]string) // symbol -> defining object, for diagnostics
	symAbs := make(map[string]bool)
	for i, o := range objects {
		for _, s := range o.Symbols {
			if prev, dup := symDef[s.Name]; dup {
				if s.Abs && symAbs[s.Name] && syms[s.Name] == uint32(s.Value) {
					continue // identical shared constant
				}
				fail("duplicate symbol %q defined in %s and %s", s.Name, prev, o.Name)
				continue
			}
			symDef[s.Name] = o.Name
			symAbs[s.Name] = s.Abs
			if s.Abs {
				syms[s.Name] = uint32(s.Value)
			} else {
				syms[s.Name] = places[i].base[s.Section] + s.Off
			}
		}
	}

	// Build segment bytes (copies: relocation patches must not mutate the
	// input objects).
	textBytes := make([]byte, textCur-cfg.TextBase)
	dataBytes := make([]byte, dataCur-cfg.DataBase)
	for i, o := range objects {
		copy(textBytes[places[i].base[SecText]-cfg.TextBase:], o.Text)
		copy(dataBytes[places[i].base[SecData]-cfg.DataBase:], o.Data)
	}

	sectionBytes := func(sec Section) ([]byte, uint32) {
		switch sec {
		case SecText:
			return textBytes, cfg.TextBase
		case SecData:
			return dataBytes, cfg.DataBase
		default:
			return nil, 0
		}
	}

	// Apply relocations.
	for i, o := range objects {
		for _, r := range o.Relocs {
			target, ok := syms[r.Sym]
			if !ok {
				fail("%s: undefined symbol %q", o.Name, r.Sym)
				continue
			}
			buf, segBase := sectionBytes(r.Section)
			if buf == nil {
				fail("%s: relocation in non-loadable section %s", o.Name, r.Section)
				continue
			}
			site := places[i].base[r.Section] + r.Off
			off := site - segBase
			if int(off)+4 > len(buf) {
				fail("%s: relocation site 0x%x out of section", o.Name, site)
				continue
			}
			val := int64(target) + r.Addend
			switch r.Kind {
			case RelAbs32:
				binary.LittleEndian.PutUint32(buf[off:], uint32(val))
			case RelBr16:
				// Displacement in words from the instruction after the
				// branch (branches are single-word instructions).
				disp := (val - int64(site) - 4) / 4
				if (val-int64(site)-4)%4 != 0 {
					fail("%s: branch target %q not word-aligned", o.Name, r.Sym)
					continue
				}
				if disp < -32768 || disp > 32767 {
					fail("%s: branch to %q out of range (%d words)", o.Name, r.Sym, disp)
					continue
				}
				w := binary.LittleEndian.Uint32(buf[off:])
				w = (w &^ 0xffff) | (uint32(disp) & 0xffff)
				binary.LittleEndian.PutUint32(buf[off:], w)
			default:
				fail("%s: unknown relocation kind %d", o.Name, r.Kind)
			}
		}
	}

	// Entry point.
	entryName := cfg.Entry
	var entry uint32
	if entryName == "" {
		if _, ok := syms["_start"]; ok {
			entryName = "_start"
		} else {
			entryName = "_main"
		}
	}
	if a, ok := syms[entryName]; ok {
		entry = a
	} else {
		fail("entry symbol %q undefined", entryName)
	}

	if len(problems) > 0 {
		return nil, &LinkError{Problems: problems}
	}

	img := &Image{
		Entry:   entry,
		Symbols: syms,
		BssAddr: bssBase,
		BssSize: bssCur - bssBase,
	}
	if len(textBytes) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: cfg.TextBase, Data: textBytes})
	}
	if len(dataBytes) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: cfg.DataBase, Data: dataBytes})
	}
	for i, o := range objects {
		for _, li := range o.Lines {
			img.Lines = append(img.Lines, LineInfo{
				Off:  places[i].base[SecText] + li.Off,
				File: li.File,
				Line: li.Line,
			})
		}
	}
	sort.Slice(img.Lines, func(a, b int) bool { return img.Lines[a].Off < img.Lines[b].Off })
	return img, nil
}
