package mem

import (
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	for _, size := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, MaxBlockBytes} {
		g, err := NewGeometry(size)
		if err != nil {
			t.Fatalf("NewGeometry(%d): %v", size, err)
		}
		if g.BlockBytes() != size {
			t.Errorf("BlockBytes = %d, want %d", g.BlockBytes(), size)
		}
		if got := g.WordsPerBlock(); got != size/WordBytes {
			t.Errorf("WordsPerBlock(%d) = %d, want %d", size, got, size/WordBytes)
		}
	}
}

func TestNewGeometryRejectsInvalid(t *testing.T) {
	// 1 GiB is a power of two: only the size bound rejects it.
	for _, size := range []int{0, 1, 2, 3, 6, 12, 24, 100, -8, 2 * MaxBlockBytes, 1 << 30} {
		if _, err := NewGeometry(size); err == nil {
			t.Errorf("NewGeometry(%d): expected error", size)
		}
	}
}

func TestMustGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGeometry(3) did not panic")
		}
	}()
	MustGeometry(3)
}

func TestBlockMapping(t *testing.T) {
	g := MustGeometry(32) // 8 words per block
	cases := []struct {
		addr   Addr
		block  Block
		offset int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{7, 0, 7},
		{8, 1, 0},
		{15, 1, 7},
		{16, 2, 0},
		{1<<40 + 3, 1 << 37, 3},
	}
	for _, c := range cases {
		if got := g.BlockOf(c.addr); got != c.block {
			t.Errorf("BlockOf(%d) = %d, want %d", c.addr, got, c.block)
		}
		if got := g.OffsetOf(c.addr); got != c.offset {
			t.Errorf("OffsetOf(%d) = %d, want %d", c.addr, got, c.offset)
		}
	}
}

func TestBaseOfRoundTrip(t *testing.T) {
	f := func(a Addr, sizeExp uint8) bool {
		size := WordBytes << (sizeExp % 10)
		g := MustGeometry(size)
		b := g.BlockOf(a)
		base := g.BaseOf(b)
		return g.BlockOf(base) == b && g.OffsetOf(base) == 0 &&
			base <= a && a < base+Addr(g.WordsPerBlock())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSameBlock(t *testing.T) {
	g := MustGeometry(16) // 4 words
	if !g.SameBlock(0, 3) {
		t.Error("0 and 3 should share a 16-byte block")
	}
	if g.SameBlock(3, 4) {
		t.Error("3 and 4 should not share a 16-byte block")
	}
}

func TestWordGrainGeometry(t *testing.T) {
	g := MustGeometry(WordBytes)
	f := func(a Addr) bool {
		return Addr(g.BlockOf(a)) == a && g.OffsetOf(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayoutAlloc(t *testing.T) {
	l := NewLayout(0)
	a := l.Alloc(36) // 9 words
	b := l.Alloc(36)
	if a != 0 {
		t.Errorf("first alloc at %d, want 0", a)
	}
	if b != 9 {
		t.Errorf("second alloc at %d, want 9 (36 bytes back to back)", b)
	}
	if l.Bytes() != 72 {
		t.Errorf("Bytes = %d, want 72", l.Bytes())
	}
}

func TestLayoutAlign(t *testing.T) {
	l := NewLayout(0)
	l.Alloc(4)
	l.Align(64)
	a := l.Alloc(8)
	if a != 16 { // 64 bytes / 4 = word 16
		t.Errorf("aligned alloc at word %d, want 16", a)
	}
	l.Align(64) // already aligned? next is word 18 -> align to 32
	if got := l.Alloc(4); got != 32 {
		t.Errorf("second aligned alloc at word %d, want 32", got)
	}
}

func TestLayoutAllocWords(t *testing.T) {
	l := NewLayout(1024)
	a := l.AllocWords(3)
	if a != 256 {
		t.Errorf("AllocWords at %d, want 256 (base 1024 bytes)", a)
	}
	if l.AllocWords(1) != 259 {
		t.Error("AllocWords did not advance by 3 words")
	}
}

func TestLayoutRoundsUpToWords(t *testing.T) {
	l := NewLayout(0)
	l.Alloc(1) // rounds to 1 word
	if got := l.Alloc(4); got != 1 {
		t.Errorf("alloc after 1-byte alloc at %d, want 1", got)
	}
}

func TestLayoutPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative alloc": func() { NewLayout(0).Alloc(-1) },
		"bad base":       func() { NewLayout(2) },
		"bad align":      func() { NewLayout(0).Align(6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
