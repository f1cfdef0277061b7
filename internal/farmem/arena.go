package farmem

import (
	"encoding/binary"
	"math"
)

// Arena is the local physical memory: a growable byte slab with size-class
// free lists for the object frames the runtime localizes and evicts.
// Offset 0 is reserved so that 0 can serve as a null address.
type Arena struct {
	mem  []byte
	brk  uint64
	free map[int][]uint64 // size -> free frame offsets
}

// NewArena creates an arena with the given initial capacity in bytes.
func NewArena(capacity int64) *Arena {
	if capacity < 64 {
		capacity = 64
	}
	return &Arena{
		mem:  make([]byte, 0, capacity),
		brk:  8, // reserve null
		free: make(map[int][]uint64),
	}
}

// Alloc returns the offset of a zeroed region of the given size.
func (a *Arena) Alloc(size int) uint64 {
	if size <= 0 {
		size = 8
	}
	size = align8(size)
	if frames := a.free[size]; len(frames) > 0 {
		off := frames[len(frames)-1]
		a.free[size] = frames[:len(frames)-1]
		clear(a.mem[off : off+uint64(size)])
		return off
	}
	off := a.brk
	a.brk += uint64(size)
	a.ensure(a.brk)
	return off
}

// Free returns a frame of the given size to the free list.
func (a *Arena) Free(off uint64, size int) {
	size = align8(size)
	a.free[size] = append(a.free[size], off)
}

// Used returns the high-water byte usage (excluding freed frames).
func (a *Arena) Used() uint64 { return a.brk }

// ensure extends the slab to n bytes. Within capacity that is a
// reslice: len only ever grows, so the bytes past it were never handed
// out and still hold the zeros make gave them. Past capacity the slab
// doubles, so n bump allocations cost O(log n) reallocations.
func (a *Arena) ensure(n uint64) {
	if n > uint64(cap(a.mem)) {
		grown := make([]byte, n, n*2)
		copy(grown, a.mem)
		a.mem = grown
	} else if n > uint64(len(a.mem)) {
		a.mem = a.mem[:n]
	}
}

func align8(n int) int { return (n + 7) &^ 7 }

// Read8 loads a 64-bit little-endian word at off.
func (a *Arena) Read8(off uint64) uint64 {
	return binary.LittleEndian.Uint64(a.mem[off : off+8])
}

// Write8 stores a 64-bit little-endian word at off.
func (a *Arena) Write8(off uint64, v uint64) {
	binary.LittleEndian.PutUint64(a.mem[off:off+8], v)
}

// ReadF loads a float64 at off.
func (a *Arena) ReadF(off uint64) float64 { return math.Float64frombits(a.Read8(off)) }

// WriteF stores a float64 at off.
func (a *Arena) WriteF(off uint64, v float64) { a.Write8(off, math.Float64bits(v)) }

// Bytes returns the slab slice [off, off+n) for bulk copies (object
// localization and eviction).
func (a *Arena) Bytes(off uint64, n int) []byte { return a.mem[off : off+uint64(n)] }

// InBounds reports whether [off, off+n) lies inside allocated memory.
func (a *Arena) InBounds(off uint64, n int) bool {
	return off >= 8 && off+uint64(n) <= a.brk
}
