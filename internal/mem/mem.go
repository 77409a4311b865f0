// Package mem provides the word/block addressing model shared by the trace,
// classification and coherence packages.
//
// Following the paper, the machine word is 4 bytes and cache blocks are
// powers of two of at least one word. All addresses handled by the library
// are word addresses: byte address / 4. A Geometry fixes a block size and
// maps word addresses to block numbers and intra-block word offsets.
package mem

import (
	"fmt"
	"math/bits"
)

// WordBytes is the machine word size in bytes. The paper's block-size sweeps
// start at 4-byte blocks and describe 8-byte doubles as "double words", so a
// word is 4 bytes.
const WordBytes = 4

// Addr is a word address: the byte address divided by WordBytes.
type Addr uint64

// Block identifies a cache block under some Geometry: Addr >> log2(words per block).
type Block uint64

// MaxBlockBytes bounds the block size. The paper's largest block is 2,048
// bytes; 64 KiB leaves headroom for page-grain what-ifs while keeping every
// per-block state vector small: the lifetime engine's per-word definitions
// for one block are 8 bytes per word, so one 64 KiB block costs 128 KiB,
// where an unbounded size could ask for gigabytes in one allocation.
const MaxBlockBytes = 64 << 10

// Geometry fixes the cache block size and provides address arithmetic.
// The zero Geometry is invalid; use NewGeometry.
type Geometry struct {
	blockBytes int
	shift      uint // log2(words per block)
}

// NewGeometry returns a Geometry for the given block size in bytes.
// The size must be a power of two in [WordBytes, MaxBlockBytes].
func NewGeometry(blockBytes int) (Geometry, error) {
	if blockBytes < WordBytes {
		return Geometry{}, fmt.Errorf("mem: block size %d smaller than word (%d bytes)", blockBytes, WordBytes)
	}
	if blockBytes > MaxBlockBytes {
		return Geometry{}, fmt.Errorf("mem: block size %d larger than the maximum (%d bytes)", blockBytes, MaxBlockBytes)
	}
	if blockBytes&(blockBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: block size %d is not a power of two", blockBytes)
	}
	words := blockBytes / WordBytes
	return Geometry{
		blockBytes: blockBytes,
		shift:      uint(bits.TrailingZeros(uint(words))),
	}, nil
}

// MustGeometry is NewGeometry that panics on an invalid block size.
// It is intended for tests and for constants known to be valid.
func MustGeometry(blockBytes int) Geometry {
	g, err := NewGeometry(blockBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// BlockBytes returns the block size in bytes.
func (g Geometry) BlockBytes() int { return g.blockBytes }

// WordsPerBlock returns the number of words in a block.
func (g Geometry) WordsPerBlock() int { return 1 << g.shift }

// BlockOf returns the block containing word address a.
func (g Geometry) BlockOf(a Addr) Block { return Block(a >> g.shift) }

// BaseOf returns the word address of the first word of block b.
func (g Geometry) BaseOf(b Block) Addr { return Addr(b) << g.shift }

// OffsetOf returns the word offset of a within its block.
func (g Geometry) OffsetOf(a Addr) int { return int(a & (1<<g.shift - 1)) }

// SameBlock reports whether two word addresses fall in the same block.
func (g Geometry) SameBlock(a, b Addr) bool { return g.BlockOf(a) == g.BlockOf(b) }

// String implements fmt.Stringer.
func (g Geometry) String() string { return fmt.Sprintf("B=%d", g.blockBytes) }

// Layout is a bump allocator for laying out a workload's data structures in
// the simulated address space. Allocations are word-granular; Align starts
// structures on chosen boundaries so that block-size effects match the
// memory layouts described in the paper (e.g. 36-byte particle records
// allocated back to back).
type Layout struct {
	next Addr
}

// NewLayout returns a Layout that starts allocating at byte address base.
// base must be word aligned.
func NewLayout(base uint64) *Layout {
	if base%WordBytes != 0 {
		panic(fmt.Sprintf("mem: layout base %d not word aligned", base))
	}
	return &Layout{next: Addr(base / WordBytes)}
}

// Alloc reserves nbytes (rounded up to whole words) and returns the word
// address of the first word.
func (l *Layout) Alloc(nbytes int) Addr {
	if nbytes < 0 {
		panic("mem: negative allocation")
	}
	words := (nbytes + WordBytes - 1) / WordBytes
	a := l.next
	l.next += Addr(words)
	return a
}

// AllocWords reserves n words and returns the first word address.
func (l *Layout) AllocWords(n int) Addr { return l.Alloc(n * WordBytes) }

// Align advances the allocation point to the next multiple of nbytes
// (a power of two, itself a multiple of the word size).
func (l *Layout) Align(nbytes int) {
	if nbytes < WordBytes || nbytes%WordBytes != 0 || nbytes&(nbytes-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", nbytes))
	}
	words := Addr(nbytes / WordBytes)
	l.next = (l.next + words - 1) &^ (words - 1)
}

// Bytes returns the total number of bytes laid out so far, measured from
// address zero (i.e. the data-set footprint when base is 0).
func (l *Layout) Bytes() uint64 { return uint64(l.next) * WordBytes }
