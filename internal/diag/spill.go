package diag

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/store"
)

// Spill format: the on-disk image of a SampleIndex, written into a
// snapshot container's diag section (or anywhere else — the stream is
// self-delimiting and self-checksummed). All integers little-endian:
//
//	u32 magic "DSPL" | u16 version | u16 flags(bit0 = bound)
//	u64 graph checksum | u64 c bits | u64 seed | u64 writer budget
//	u64 entry count
//	entries, least-recently-used first:
//	  u8 kind 0 (chunk):   i32 node | i32 lk | i32 chunk | i32 size | i64 meets
//	  u8 kind 1 (explore): i32 node | i32 depth | i64 edge budget |
//	                       i64 reached level | u64 zSum bits
//	u64 crc64 of everything above
//
// The binding triple (graph checksum, c, seed) is what makes restoring
// safe: a chunk's meet count is only meaningful for the exact RNG
// stream (seed), decay (c) and graph that produced it, so a restored
// index refuses to serve until the host graph hashes to the recorded
// checksum — a mismatched restore degrades to a cold index (or a hard
// error via BindRestored), never to silently wrong similarity scores.

const (
	spillMagic   = uint32(0x4c505344) // "DSPL"
	spillVersion = uint16(1)

	spillFlagBound = uint16(1)

	spillHeaderSize  = 48
	spillChunkSize   = 1 + 4*4 + 8
	spillExploreSize = 1 + 4 + 4 + 8 + 8 + 8
)

// SpillInfo summarizes a spill stream without restoring it — the
// inspection half of the snapshot tooling.
type SpillInfo struct {
	// Bound reports whether the writing index had a binding (an unbound
	// index is necessarily empty).
	Bound bool
	// GraphChecksum, C, Seed are the binding triple a restore must match.
	GraphChecksum uint64
	C             float64
	Seed          uint64
	// BudgetBytes is the writing index's eviction budget (informational;
	// the restoring index keeps its own).
	BudgetBytes int64
	// Chunks and Explores count the spilled entries by kind.
	Chunks   int
	Explores int
}

// WriteTo serializes the index — binding and entries, least recently
// used first — implementing io.WriterTo. The entries are marshalled
// under the index lock into one buffer, then written outside it, so a
// slow destination never stalls concurrent queries. Spilling is a pure
// read: the index keeps serving, and the spill is a consistent
// point-in-time image.
func (ix *SampleIndex) WriteTo(w io.Writer) (int64, error) {
	// Hash the graph identity before taking ix.mu: Checksum may cost an
	// O(m) pass the first time (cached after), and holding the index
	// lock through it would stall every concurrent query.
	ix.mu.Lock()
	g := ix.g
	ix.mu.Unlock()
	var gsum uint64
	if g != nil {
		gsum = g.Checksum()
	}
	buf := ix.marshal(g, gsum)
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], store.CRC64(buf))
	buf = append(buf, tail[:]...)
	n, err := w.Write(buf)
	return int64(n), err
}

// SpillSize returns the exact byte length WriteTo would produce right
// now (callers declaring container section lengths want it; a
// concurrent mutation between SpillSize and WriteTo changes the answer,
// so snapshotting callers buffer the spill instead).
func (ix *SampleIndex) SpillSize() int64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return int64(spillHeaderSize) + int64(ix.chunks)*spillChunkSize +
		int64(ix.explores)*spillExploreSize + 8
}

// marshal renders header + entries (no trailing CRC) under the lock.
// (hintG, gsumHint) carry the checksum the caller pre-computed outside
// the lock for the graph it saw bound; the hint applies only while that
// same graph is still bound. In the rare races (adoption or Reset
// in between) the in-lock Checksum call is O(1-ish): adoption just
// computed and cached it.
func (ix *SampleIndex) marshal(hintG *graph.Graph, gsumHint uint64) []byte {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	buf := make([]byte, spillHeaderSize,
		int(spillHeaderSize)+ix.chunks*spillChunkSize+ix.explores*spillExploreSize)
	binary.LittleEndian.PutUint32(buf[0:], spillMagic)
	binary.LittleEndian.PutUint16(buf[4:], spillVersion)
	var flags uint16
	var gsum uint64
	if ix.bound {
		flags |= spillFlagBound
		switch {
		case ix.g != nil && ix.g == hintG:
			gsum = gsumHint
		case ix.g != nil:
			gsum = ix.g.Checksum()
		default:
			gsum = ix.restoredSum // restored but never re-adopted: pass the binding through
		}
	}
	binary.LittleEndian.PutUint16(buf[6:], flags)
	binary.LittleEndian.PutUint64(buf[8:], gsum)
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(ix.c))
	binary.LittleEndian.PutUint64(buf[24:], ix.seed)
	binary.LittleEndian.PutUint64(buf[32:], uint64(ix.budget))
	binary.LittleEndian.PutUint64(buf[40:], uint64(ix.ll.Len()))
	var rec [spillExploreSize]byte
	for el := ix.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*indexEntry)
		if e.isExplore {
			rec[0] = 1
			binary.LittleEndian.PutUint32(rec[1:], uint32(e.ek.node))
			binary.LittleEndian.PutUint32(rec[5:], uint32(e.ek.depth))
			binary.LittleEndian.PutUint64(rec[9:], uint64(e.ek.budget))
			binary.LittleEndian.PutUint64(rec[17:], uint64(e.ev.lk))
			binary.LittleEndian.PutUint64(rec[25:], math.Float64bits(e.ev.zSum))
			buf = append(buf, rec[:spillExploreSize]...)
		} else {
			rec[0] = 0
			binary.LittleEndian.PutUint32(rec[1:], uint32(e.ck.node))
			binary.LittleEndian.PutUint32(rec[5:], uint32(e.ck.lk))
			binary.LittleEndian.PutUint32(rec[9:], uint32(e.ck.chunk))
			binary.LittleEndian.PutUint32(rec[13:], uint32(e.ck.size))
			binary.LittleEndian.PutUint64(rec[17:], uint64(e.meets))
			buf = append(buf, rec[:spillChunkSize]...)
		}
	}
	return buf
}

// ReadFrom restores a spill into this index, implementing
// io.ReaderFrom. The index must be fresh (empty and unbound) — restores
// never merge. Entries are inserted in spilled order (least recently
// used first) so the destination reproduces the writer's LRU order; the
// destination's own byte budget applies, evicting the least-recent
// spilled entries when the writer's index was bigger than this one's
// budget allows.
//
// A restored index is bound to the spill's (graph checksum, c, seed)
// but holds no graph yet: the first Batch that uses it (or an explicit
// BindRestored) must present a graph hashing to the recorded checksum,
// or the index bypasses — cold, not wrong.
func (ix *SampleIndex) ReadFrom(r io.Reader) (int64, error) {
	var hdr [spillHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		return int64(n), fmt.Errorf("diag: reading spill header: %w", err)
	}
	read := int64(n)
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != spillMagic {
		return read, fmt.Errorf("diag: bad spill magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != spillVersion {
		return read, fmt.Errorf("diag: unsupported spill version %d (this build reads version %d)", v, spillVersion)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:])
	gsum := binary.LittleEndian.Uint64(hdr[8:])
	c := math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:]))
	seed := binary.LittleEndian.Uint64(hdr[24:])
	count := binary.LittleEndian.Uint64(hdr[40:])
	if count > 1<<32 {
		return read, fmt.Errorf("diag: implausible spill entry count %d", count)
	}
	// Only a bound index holds entries. Unbound ones would be adopted by
	// the first graph to query the index, and serve samples drawn for
	// another.
	if flags&spillFlagBound == 0 && count > 0 {
		return read, fmt.Errorf("diag: unbound spill carries %d entries", count)
	}
	crc := store.NewCRC64()
	crc.Write(hdr[:])

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.bound || ix.ll.Len() > 0 {
		return read, fmt.Errorf("diag: ReadFrom requires a fresh index (this one is %s)",
			map[bool]string{true: "already bound", false: "non-empty"}[ix.bound])
	}

	var rec [spillExploreSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:1]); err != nil {
			ix.resetLocked()
			return read, fmt.Errorf("diag: spill truncated at entry %d/%d: %w", i+1, count, err)
		}
		read++
		crc.Write(rec[:1])
		switch rec[0] {
		case 0:
			m, err := io.ReadFull(r, rec[1:spillChunkSize])
			read += int64(m)
			if err != nil {
				ix.resetLocked()
				return read, fmt.Errorf("diag: spill truncated in chunk entry %d/%d: %w", i+1, count, err)
			}
			crc.Write(rec[1:spillChunkSize])
			k := chunkKey{
				node:  graph.NodeID(binary.LittleEndian.Uint32(rec[1:])),
				lk:    int32(binary.LittleEndian.Uint32(rec[5:])),
				chunk: int32(binary.LittleEndian.Uint32(rec[9:])),
				size:  int32(binary.LittleEndian.Uint32(rec[13:])),
			}
			if _, dup := ix.chunkEls[k]; dup {
				ix.resetLocked()
				return read, fmt.Errorf("diag: spill repeats chunk entry %+v", k)
			}
			ix.chunkEls[k] = ix.ll.PushFront(&indexEntry{
				ck: k, meets: int64(binary.LittleEndian.Uint64(rec[17:])),
			})
			ix.chunks++
			ix.resident += chunkEntryBytes
		case 1:
			m, err := io.ReadFull(r, rec[1:spillExploreSize])
			read += int64(m)
			if err != nil {
				ix.resetLocked()
				return read, fmt.Errorf("diag: spill truncated in explore entry %d/%d: %w", i+1, count, err)
			}
			crc.Write(rec[1:spillExploreSize])
			k := exploreKey{
				node:   graph.NodeID(binary.LittleEndian.Uint32(rec[1:])),
				depth:  int32(binary.LittleEndian.Uint32(rec[5:])),
				budget: int64(binary.LittleEndian.Uint64(rec[9:])),
			}
			if _, dup := ix.exploreEls[k]; dup {
				ix.resetLocked()
				return read, fmt.Errorf("diag: spill repeats explore entry %+v", k)
			}
			ix.exploreEls[k] = ix.ll.PushFront(&indexEntry{
				isExplore: true, ek: k,
				ev: exploreVal{
					lk:   int(int64(binary.LittleEndian.Uint64(rec[17:]))),
					zSum: math.Float64frombits(binary.LittleEndian.Uint64(rec[25:])),
				},
			})
			ix.explores++
			ix.resident += exploreEntryBytes
		default:
			ix.resetLocked()
			return read, fmt.Errorf("diag: unknown spill entry kind %d", rec[0])
		}
		// The destination budget governs, entry by entry: inserting
		// oldest-first and evicting from the LRU tail keeps exactly the
		// most recently used spilled entries that fit.
		ix.evictLocked()
	}
	var tail [8]byte
	m, err := io.ReadFull(r, tail[:])
	read += int64(m)
	if err != nil {
		ix.resetLocked()
		return read, fmt.Errorf("diag: spill missing checksum trailer: %w", err)
	}
	if got, want := crc.Sum64(), binary.LittleEndian.Uint64(tail[:]); got != want {
		ix.resetLocked()
		return read, fmt.Errorf("diag: spill checksum mismatch: stream says %#x, content hashes to %#x", want, got)
	}
	// Evictions during a restore are capacity shaping, not cache churn:
	// start the gauge clean.
	ix.evictions = 0
	if flags&spillFlagBound != 0 {
		ix.bound = true
		ix.g = nil
		ix.c = c
		ix.seed = seed
		ix.restoredSum = gsum
	}
	return read, nil
}

// resetLocked is Reset for callers already holding ix.mu.
func (ix *SampleIndex) resetLocked() {
	ix.bound, ix.g, ix.c, ix.seed, ix.restoredSum = false, nil, 0, 0, 0
	clear(ix.chunkEls)
	clear(ix.exploreEls)
	ix.ll.Init()
	ix.resident, ix.chunks, ix.explores = 0, 0, 0
}

// BindRestored adopts g as the graph of a restored index, verifying
// that it hashes to the checksum the spill was bound to. It is the
// fail-fast alternative to the lazy adoption in bind(): a snapshot
// loader calls it to reject a graph/index mismatch at restore time
// instead of serving cold forever.
func (ix *SampleIndex) BindRestored(g *graph.Graph) error {
	sum := g.Checksum() // outside ix.mu: may hash O(m) bytes
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.bound || ix.g != nil || ix.restoredSum == 0 {
		return fmt.Errorf("diag: BindRestored on an index that was not restored from a spill")
	}
	if sum != ix.restoredSum {
		return fmt.Errorf("diag: restored index is bound to graph %#x, got graph %#x (the graph changed since the spill was written)",
			ix.restoredSum, sum)
	}
	ix.g = g
	return nil
}

// RestoredChecksum returns the graph checksum a restored-but-unadopted
// index is waiting for (ok=false once adopted, or if never restored).
func (ix *SampleIndex) RestoredChecksum() (sum uint64, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.bound && ix.g == nil && ix.restoredSum != 0 {
		return ix.restoredSum, true
	}
	return 0, false
}

// ReadSpillInfo parses a spill stream's header and counts its entries
// without building an index — cmd/snapshot's inspect path.
func ReadSpillInfo(r io.Reader) (SpillInfo, error) {
	var hdr [spillHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return SpillInfo{}, fmt.Errorf("diag: reading spill header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != spillMagic {
		return SpillInfo{}, fmt.Errorf("diag: bad spill magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != spillVersion {
		return SpillInfo{}, fmt.Errorf("diag: unsupported spill version %d", v)
	}
	info := SpillInfo{
		Bound:         binary.LittleEndian.Uint16(hdr[6:])&spillFlagBound != 0,
		GraphChecksum: binary.LittleEndian.Uint64(hdr[8:]),
		C:             math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:])),
		Seed:          binary.LittleEndian.Uint64(hdr[24:]),
		BudgetBytes:   int64(binary.LittleEndian.Uint64(hdr[32:])),
	}
	count := binary.LittleEndian.Uint64(hdr[40:])
	var kind [1]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return info, fmt.Errorf("diag: spill truncated at entry %d/%d: %w", i+1, count, err)
		}
		var skip int64
		switch kind[0] {
		case 0:
			info.Chunks++
			skip = spillChunkSize - 1
		case 1:
			info.Explores++
			skip = spillExploreSize - 1
		default:
			return info, fmt.Errorf("diag: unknown spill entry kind %d", kind[0])
		}
		if _, err := io.CopyN(io.Discard, r, skip); err != nil {
			return info, fmt.Errorf("diag: spill truncated in entry %d/%d: %w", i+1, count, err)
		}
	}
	return info, nil
}
