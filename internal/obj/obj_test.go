package obj

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
)

func word(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

func TestLinkLayoutAndSymbols(t *testing.T) {
	o1 := &Object{
		Name: "a.o",
		Text: append(word(1), word(2)...), // 8 bytes
		Data: word(0x1111),
		Symbols: []Symbol{
			{Name: "_start", Section: SecText, Off: 0},
			{Name: "a_data", Section: SecData, Off: 0},
		},
	}
	o2 := &Object{
		Name:    "b.o",
		Text:    word(3),
		Data:    word(0x2222),
		BssSize: 8,
		Symbols: []Symbol{
			{Name: "bfunc", Section: SecText, Off: 0},
			{Name: "bbss", Section: SecBss, Off: 4},
			{Name: "KONST", Abs: true, Value: 42},
		},
	}
	img, err := Link(LinkConfig{TextBase: 0x1000, DataBase: 0x2000}, o1, o2)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0x1000 {
		t.Errorf("entry = %#x", img.Entry)
	}
	if got := img.Symbols["bfunc"]; got != 0x1008 {
		t.Errorf("bfunc = %#x, want 0x1008", got)
	}
	if got := img.Symbols["a_data"]; got != 0x2000 {
		t.Errorf("a_data = %#x", got)
	}
	if got := img.Symbols["KONST"]; got != 42 {
		t.Errorf("KONST = %d", got)
	}
	// BSS follows data: o1 data 4 bytes, o2 data 4 bytes -> bss at 0x2008.
	if img.BssAddr != 0x2008 || img.BssSize != 8 {
		t.Errorf("bss = %#x+%d", img.BssAddr, img.BssSize)
	}
	if got := img.Symbols["bbss"]; got != 0x200c {
		t.Errorf("bbss = %#x", got)
	}
	if len(img.Segments) != 2 {
		t.Fatalf("segments = %d", len(img.Segments))
	}
	if img.Segments[0].Addr != 0x1000 || len(img.Segments[0].Data) != 12 {
		t.Errorf("text segment: %#x len %d", img.Segments[0].Addr, len(img.Segments[0].Data))
	}
}

func TestLinkAbs32Reloc(t *testing.T) {
	caller := &Object{
		Name: "caller.o",
		Text: append(word(0xAA000000), word(0)...), // placeholder ext word
		Symbols: []Symbol{
			{Name: "_start", Section: SecText, Off: 0},
		},
		Relocs: []Reloc{
			{Section: SecText, Off: 4, Kind: RelAbs32, Sym: "callee", Addend: 4},
		},
	}
	callee := &Object{
		Name:    "callee.o",
		Text:    word(0xBB000000),
		Symbols: []Symbol{{Name: "callee", Section: SecText, Off: 0}},
	}
	img, err := Link(LinkConfig{TextBase: 0x100, DataBase: 0x200, Entry: "_start"}, caller, callee)
	if err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint32(img.Segments[0].Data[4:])
	if got != 0x108+4 {
		t.Errorf("patched ext word = %#x, want %#x", got, 0x10c)
	}
	// The input object must not be mutated.
	if binary.LittleEndian.Uint32(caller.Text[4:]) != 0 {
		t.Error("link mutated input object")
	}
}

func TestLinkBr16Reloc(t *testing.T) {
	// Branch at text offset 0 of obj1, target at offset 0 of obj2
	// (address 0x108). disp = (0x108 - 0x100 - 4)/4 = 1.
	o1 := &Object{
		Name:    "o1",
		Text:    append(word(0xCC000000), word(0)...),
		Symbols: []Symbol{{Name: "_start", Section: SecText, Off: 0}},
		Relocs:  []Reloc{{Section: SecText, Off: 0, Kind: RelBr16, Sym: "far"}},
	}
	o2 := &Object{
		Name:    "o2",
		Text:    word(0xDD000000),
		Symbols: []Symbol{{Name: "far", Section: SecText, Off: 0}},
	}
	img, err := Link(LinkConfig{TextBase: 0x100, DataBase: 0x200}, o1, o2)
	if err != nil {
		t.Fatal(err)
	}
	got := binary.LittleEndian.Uint32(img.Segments[0].Data[0:])
	if got&0xffff != 1 {
		t.Errorf("branch displacement = %d, want 1", int16(got&0xffff))
	}
	if got>>24 != 0xCC {
		t.Errorf("opcode byte clobbered: %#x", got)
	}
}

func TestLinkErrors(t *testing.T) {
	undef := &Object{
		Name:    "u.o",
		Text:    word(0),
		Symbols: []Symbol{{Name: "_start", Section: SecText, Off: 0}},
		Relocs:  []Reloc{{Section: SecText, Off: 0, Kind: RelAbs32, Sym: "missing"}},
	}
	_, err := Link(LinkConfig{TextBase: 0, DataBase: 0x100}, undef)
	if err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("want undefined symbol error, got %v", err)
	}

	d1 := &Object{Name: "d1", Text: word(0), Symbols: []Symbol{{Name: "x", Section: SecText}}}
	d2 := &Object{Name: "d2", Text: word(0), Symbols: []Symbol{{Name: "x", Section: SecText}}}
	_, err = Link(LinkConfig{TextBase: 0, DataBase: 0x100, Entry: "x"}, d1, d2)
	if err == nil || !strings.Contains(err.Error(), "duplicate symbol") {
		t.Errorf("want duplicate symbol error, got %v", err)
	}

	empty := &Object{Name: "e", Text: word(0)}
	_, err = Link(LinkConfig{TextBase: 0, DataBase: 0x100}, empty)
	if err == nil || !strings.Contains(err.Error(), "entry symbol") {
		t.Errorf("want entry error, got %v", err)
	}
}

func TestLinkEntryFallback(t *testing.T) {
	// Without _start, _main is the entry.
	o := &Object{Name: "m", Text: word(0), Symbols: []Symbol{{Name: "_main", Section: SecText, Off: 0}}}
	img, err := Link(LinkConfig{TextBase: 0x40, DataBase: 0x100}, o)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0x40 {
		t.Errorf("entry = %#x", img.Entry)
	}
	// With both, _start wins.
	o2 := &Object{Name: "m2", Text: append(word(0), word(0)...), Symbols: []Symbol{
		{Name: "_main", Section: SecText, Off: 0},
		{Name: "_start", Section: SecText, Off: 4},
	}}
	img2, err := Link(LinkConfig{TextBase: 0x40, DataBase: 0x100}, o2)
	if err != nil {
		t.Fatal(err)
	}
	if img2.Entry != 0x44 {
		t.Errorf("entry = %#x, want _start at 0x44", img2.Entry)
	}
}

func TestBranchOutOfRange(t *testing.T) {
	big := &Object{
		Name:    "big",
		Text:    make([]byte, 4*40000), // 40000 words > 32767 word reach
		Symbols: []Symbol{{Name: "_start", Section: SecText, Off: 0}, {Name: "end", Section: SecText, Off: 4 * 39999}},
		Relocs:  []Reloc{{Section: SecText, Off: 0, Kind: RelBr16, Sym: "end"}},
	}
	_, err := Link(LinkConfig{TextBase: 0, DataBase: 0x80000}, big)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want out-of-range branch error, got %v", err)
	}
}

func TestSourceAt(t *testing.T) {
	o := &Object{
		Name:    "s",
		Text:    append(word(0), word(0)...),
		Symbols: []Symbol{{Name: "_start", Section: SecText, Off: 0}},
		Lines: []LineInfo{
			{Off: 0, File: "s.asm", Line: 3},
			{Off: 4, File: "s.asm", Line: 4},
		},
	}
	img, err := Link(LinkConfig{TextBase: 0x1000, DataBase: 0x2000}, o)
	if err != nil {
		t.Fatal(err)
	}
	if f, l, ok := img.SourceAt(0x1000); !ok || f != "s.asm" || l != 3 {
		t.Errorf("SourceAt(0x1000) = %s:%d %v", f, l, ok)
	}
	if _, l, ok := img.SourceAt(0x1004); !ok || l != 4 {
		t.Errorf("SourceAt(0x1004) line = %d", l)
	}
	if _, _, ok := img.SourceAt(0x0fff); ok {
		t.Error("SourceAt before text should miss")
	}
	if a, ok := img.SymbolAddr("_start"); !ok || a != 0x1000 {
		t.Errorf("SymbolAddr = %#x %v", a, ok)
	}
}

// TestDerivedOneValuePerKey: concurrent first uses of a key on one image
// all get the one value kept, and distinct keys get distinct values.
func TestDerivedOneValuePerKey(t *testing.T) {
	img := &Image{}
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = img.Derived("table", func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, got[0])
		}
	}
	if again := img.Derived("table", func() any { return new(int) }); again != got[0] {
		t.Error("a later use rebuilt the value")
	}
	if other := img.Derived("other", func() any { return new(int) }); other == got[0] {
		t.Error("distinct keys share a value")
	}
}
