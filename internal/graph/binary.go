package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"github.com/exactsim/exactsim/internal/store"
)

// Binary graphs live in the snapshot container format of internal/store:
// a versioned, checksummed file whose graph section is the CSR arrays in
// little-endian fixed-width form. The section payload is
//
//	u64 n | u64 m | outOff (n+1)×i64 | inOff (n+1)×i64 |
//	outAdj m×i32 | inAdj m×i32
//
// — int64 arrays first, so every array stays self-aligned inside the
// 8-byte-aligned payload. On 64-bit little-endian platforms OpenBinary
// serves the CSR straight out of an mmap'd mapping with zero copies and
// zero parsing; everywhere else (and for io.Reader sources) the same
// bytes decode through explicit little-endian reads behind the same API.

const csrHeaderSize = 16

// BinarySize returns the graph section payload length for g.
func BinarySize(g *Graph) int64 {
	return csrHeaderSize + int64(len(g.outOff)+len(g.inOff))*8 +
		int64(len(g.outAdj)+len(g.inAdj))*4
}

// EncodeCSR writes g's graph section payload (exactly BinarySize(g)
// bytes). On little-endian hosts the arrays are written as single bulk
// copies of their in-memory images.
func EncodeCSR(w io.Writer, g *Graph) error {
	var hdr [csrHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.outAdj)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var scratch [1 << 13]byte
	for _, arr := range [2][]int64{g.outOff, g.inOff} {
		if err := writeInt64s(w, arr, scratch[:]); err != nil {
			return err
		}
	}
	for _, arr := range [2][]int32{g.outAdj, g.inAdj} {
		if err := writeInt32s(w, arr, scratch[:]); err != nil {
			return err
		}
	}
	return nil
}

func writeInt64s(w io.Writer, xs []int64, scratch []byte) error {
	if b, ok := store.AliasBytes64(xs); ok {
		_, err := w.Write(b)
		return err
	}
	for len(xs) > 0 {
		n := len(scratch) / 8
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(scratch[i*8:], uint64(xs[i]))
		}
		if _, err := w.Write(scratch[:n*8]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func writeInt32s(w io.Writer, xs []int32, scratch []byte) error {
	if b, ok := store.AliasBytes32(xs); ok {
		_, err := w.Write(b)
		return err
	}
	for len(xs) > 0 {
		n := len(scratch) / 4
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[i*4:], uint32(xs[i]))
		}
		if _, err := w.Write(scratch[:n*4]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// Checksum returns the CRC64 of g's encoded graph section — the value a
// container's graph section carries, and the graph identity a diagonal
// sample index spill binds to. Computed once per Graph and cached
// (graphs are immutable); a graph opened from a container inherits the
// already-verified section checksum for free.
func (g *Graph) Checksum() uint64 {
	g.sumOnce.Do(func() {
		h := store.NewCRC64()
		// Writing to a hash cannot fail.
		_ = EncodeCSR(h, g)
		g.sum = h.Sum64()
	})
	return g.sum
}

// primeChecksum installs a checksum already known (a verified section
// CRC) so Checksum never re-hashes. No-op if Checksum already ran.
func (g *Graph) primeChecksum(sum uint64) {
	g.sumOnce.Do(func() { g.sum = sum })
}

// WriteBinary encodes the graph as a single-section snapshot container.
func WriteBinary(w io.Writer, g *Graph) error {
	sw, err := store.NewWriter(w, 1)
	if err != nil {
		return err
	}
	crc, err := sw.Section(store.SectionGraph, BinarySize(g), func(pw io.Writer) error {
		return EncodeCSR(pw, g)
	})
	if err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	g.primeChecksum(crc)
	return nil
}

// decodeSection builds a Graph over one graph section payload. When the
// platform and alignment allow, the CSR slices alias the payload bytes
// (aliased=true) and share their lifetime; otherwise they are decoded
// into fresh heap arrays. The caller validates.
func decodeSection(payload []byte) (g *Graph, aliased bool, err error) {
	if len(payload) < csrHeaderSize {
		return nil, false, fmt.Errorf("graph: section of %d bytes is shorter than the CSR header", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload[0:])
	m := binary.LittleEndian.Uint64(payload[8:])
	if n > 1<<31-2 || m > 1<<40 {
		return nil, false, fmt.Errorf("graph: implausible CSR header n=%d m=%d", n, m)
	}
	want := csrHeaderSize + int64(n+1)*16 + int64(m)*8
	if int64(len(payload)) != want {
		return nil, false, fmt.Errorf("graph: CSR section is %d bytes, header implies %d", len(payload), want)
	}
	offBytes := int64(n+1) * 8
	adjBytes := int64(m) * 4
	cut := func(off, length int64) []byte { return payload[off : off+length : off+length] }
	var (
		outOffB = cut(csrHeaderSize, offBytes)
		inOffB  = cut(csrHeaderSize+offBytes, offBytes)
		outAdjB = cut(csrHeaderSize+2*offBytes, adjBytes)
		inAdjB  = cut(csrHeaderSize+2*offBytes+adjBytes, adjBytes)
	)
	g = &Graph{n: int32(n)}
	outOff, ok1 := store.AliasInt64s(outOffB)
	inOff, ok2 := store.AliasInt64s(inOffB)
	outAdj, ok3 := store.AliasInt32s(outAdjB)
	inAdj, ok4 := store.AliasInt32s(inAdjB)
	if ok1 && ok2 && ok3 && ok4 {
		// Zero-copy: the graph IS the payload. All four alias or none do,
		// so the arrays never split their lifetimes across backings.
		g.outOff, g.inOff, g.outAdj, g.inAdj = outOff, inOff, outAdj, inAdj
		return g, true, nil
	}
	g.outOff = decodeInt64s(outOffB)
	g.inOff = decodeInt64s(inOffB)
	g.outAdj = decodeInt32s(outAdjB)
	g.inAdj = decodeInt32s(inAdjB)
	return g, false, nil
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// FromContainer extracts the graph section of an opened container.
// When the section could be aliased (aliased=true) the graph's CSR
// slices share the container's backing bytes and the graph takes
// ownership: closing the graph closes the container, and the container
// must not be closed by anyone else while the graph lives. When the
// decode copied (aliased=false) the caller should close the container
// itself once done with its sections.
func FromContainer(f *store.File) (g *Graph, aliased bool, err error) {
	sec, ok := f.Section(store.SectionGraph)
	if !ok {
		return nil, false, fmt.Errorf("graph: container has no graph section")
	}
	g, aliased, err = decodeSection(sec.Payload)
	if err != nil {
		return nil, false, err
	}
	if err := g.Validate(); err != nil {
		return nil, false, fmt.Errorf("graph: container graph failed validation: %w", err)
	}
	g.primeChecksum(sec.CRC)
	if aliased {
		g.mapped = f.Mapped()
		g.release = f.Close
	}
	return g, aliased, nil
}

// OpenBinary opens a binary graph file for zero-copy serving: the file
// is mmap'd (where the platform allows) and the returned graph's CSR
// slices alias the mapping, so "loading" even a multi-gigabyte graph is
// a page-table operation plus one checksum pass — no parsing, no
// allocation. Close the graph when done to release the mapping; a
// never-closed graph simply pins the mapping for the life of the
// process, which is safe. On platforms without mmap (or for files that
// decline to alias) the same call transparently reads and decodes the
// file into heap arrays.
func OpenBinary(path string) (*Graph, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	g, aliased, err := FromContainer(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if !aliased {
		f.Close()
	}
	return g, nil
}

// ReadBinary decodes a binary graph container from a stream and
// validates it. The result never aliases an mmap (use OpenBinary for
// that); it may alias the in-memory read buffer.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading binary graph: %w", err)
	}
	f, err := store.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g, _, err := FromContainer(f)
	return g, err
}

// SaveBinary writes the container encoding to path atomically (temp
// file + rename), so a crash mid-write never leaves a half-snapshot
// where a loader could find it.
func SaveBinary(path string, g *Graph) error {
	return store.WriteFile(path, func(w io.Writer) error { return WriteBinary(w, g) }, nil)
}

// LoadBinary reads a binary graph from path into memory (copy
// semantics — safe to keep after any file handle is gone). For
// zero-copy mmap-backed serving use OpenBinary.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
