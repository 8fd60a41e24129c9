package diag

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/exactsim/exactsim/internal/gen"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/store"
)

// warmIndex builds an index and fills it through a real Batch run.
func warmIndex(t testing.TB, g *graph.Graph, seed uint64, budget int64) *SampleIndex {
	t.Helper()
	ix := NewSampleIndex(budget)
	reqs := make([]Request, 0, g.N())
	for v := 0; v < g.N(); v++ {
		reqs = append(reqs, Request{Node: graph.NodeID(v), Samples: 3000})
	}
	Batch(g, reqs, Options{C: 0.6, Improved: true, Workers: 2, Seed: seed, Index: ix})
	if st := ix.Stats(); st.Chunks == 0 || st.Explores == 0 {
		t.Fatalf("warm index is empty: %+v", st)
	}
	return ix
}

func spillBytes(t testing.TB, ix *SampleIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != ix.SpillSize() {
		t.Fatalf("SpillSize %d != written %d", ix.SpillSize(), n)
	}
	return buf.Bytes()
}

// TestSpillRoundTripBitEquality proves the core guarantee: a Batch over
// a restored index answers bit-identically to the writer — every cached
// chunk and exploration is served, none resampled.
func TestSpillRoundTripBitEquality(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	const seed = 42
	ix := warmIndex(t, g, seed, 0)
	want := ix.Stats()
	data := spillBytes(t, ix)

	reqs := make([]Request, 0, g.N())
	for v := 0; v < g.N(); v++ {
		reqs = append(reqs, Request{Node: graph.NodeID(v), Samples: 3000})
	}
	ref := Batch(g, reqs, Options{C: 0.6, Improved: true, Workers: 2, Seed: seed, Index: ix})

	ix2 := NewSampleIndex(0)
	if n, err := ix2.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	} else if n != int64(len(data)) {
		t.Fatalf("ReadFrom consumed %d of %d bytes", n, len(data))
	}
	st := ix2.Stats()
	if st.Chunks != want.Chunks || st.Explores != want.Explores || st.ResidentBytes != want.ResidentBytes {
		t.Fatalf("restored index shape %+v != writer %+v", st, want)
	}
	got := Batch(g, reqs, Options{C: 0.6, Improved: true, Workers: 4, Seed: seed, Index: ix2})
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("restored batch diverges at node %d: %v vs %v", i, got[i], ref[i])
		}
	}
	// And every lookup must have been a hit: the restored index carries
	// everything the writer's did.
	st = ix2.Stats()
	if st.Misses != 0 {
		t.Fatalf("restored index missed %d lookups (hits %d)", st.Misses, st.Hits)
	}
}

func TestSpillRejectsMismatchedGraph(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 7)
	other := gen.BarabasiAlbert(200, 3, 8)
	const seed = 9
	data := spillBytes(t, warmIndex(t, g, seed, 0))

	ix := NewSampleIndex(0)
	if _, err := ix.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := ix.BindRestored(other); err == nil {
		t.Fatal("BindRestored accepted a different graph")
	}
	// The lazy path must bypass (cold), not serve wrong-graph chunks.
	if ix.bind(other, 0.6, seed) {
		t.Fatal("bind adopted a mismatched graph")
	}
	// Wrong seed or decay against the right graph must bypass too.
	if ix.bind(g, 0.6, seed+1) {
		t.Fatal("bind adopted a mismatched seed")
	}
	if ix.bind(g, 0.8, seed) {
		t.Fatal("bind adopted a mismatched decay")
	}
	// The right triple adopts — even after the failed attempts.
	if !ix.bind(g, 0.6, seed) {
		t.Fatal("bind refused the matching graph")
	}
	if err := ix.BindRestored(g); err == nil {
		t.Fatal("BindRestored succeeded twice (already adopted)")
	}
}

func TestSpillBindRestoredAdopts(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 3)
	const seed = 5
	data := spillBytes(t, warmIndex(t, g, seed, 0))
	ix := NewSampleIndex(0)
	if _, err := ix.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if sum, ok := ix.RestoredChecksum(); !ok || sum != g.Checksum() {
		t.Fatalf("RestoredChecksum = %#x, %v; want %#x, true", sum, ok, g.Checksum())
	}
	if err := ix.BindRestored(g); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.RestoredChecksum(); ok {
		t.Fatal("RestoredChecksum still pending after adoption")
	}
	if !ix.bind(g, 0.6, seed) {
		t.Fatal("bind refused adopted graph")
	}
}

// TestSpillHonorsDestinationBudget restores a big spill into a small
// index: the most recently used entries must survive, the tail evict.
func TestSpillHonorsDestinationBudget(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 11)
	src := warmIndex(t, g, 13, 0)
	data := spillBytes(t, src)
	full := src.Stats()

	budget := full.ResidentBytes / 3
	ix := NewSampleIndex(budget)
	if _, err := ix.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.ResidentBytes > budget {
		t.Fatalf("restored index resident %d exceeds budget %d", st.ResidentBytes, budget)
	}
	if st.Chunks+st.Explores == 0 {
		t.Fatal("budgeted restore kept nothing")
	}
	if st.Chunks+st.Explores >= full.Chunks+full.Explores {
		t.Fatal("budgeted restore evicted nothing despite a third of the budget")
	}
	if st.Evictions != 0 {
		t.Fatalf("restore reported %d evictions; capacity shaping should not count", st.Evictions)
	}
	// The survivors must be the most recently used: the writer's MRU
	// entry is the front of its list; spill order is LRU-first, so the
	// destination's front equals the writer's front.
	srcFront := src.ll.Front().Value.(*indexEntry)
	dstFront := ix.ll.Front().Value.(*indexEntry)
	if srcFront.isExplore != dstFront.isExplore || srcFront.ck != dstFront.ck || srcFront.ek != dstFront.ek {
		t.Fatal("restored MRU entry differs from writer MRU entry")
	}
}

func TestSpillRejectsDamage(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 2)
	data := spillBytes(t, warmIndex(t, g, 1, 0))

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"magic", func(d []byte) []byte { d[0] ^= 0xff; return d }},
		{"version", func(d []byte) []byte { d[4] ^= 0x02; return d }},
		{"entry bit flip", func(d []byte) []byte { d[spillHeaderSize+5] ^= 0x10; return d }},
		{"truncated entries", func(d []byte) []byte { return d[:spillHeaderSize+7] }},
		{"truncated checksum", func(d []byte) []byte { return d[:len(d)-3] }},
		{"checksum flip", func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := NewSampleIndex(0)
			if _, err := ix.ReadFrom(bytes.NewReader(tc.mutate(append([]byte(nil), data...)))); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			// A failed restore must leave the index fresh and usable.
			st := ix.Stats()
			if st.Chunks != 0 || st.Explores != 0 || st.ResidentBytes != 0 {
				t.Fatalf("failed restore left residue: %+v", st)
			}
			if ix.bound {
				t.Fatal("failed restore left a binding")
			}
		})
	}
}

func TestSpillRefusesNonFreshIndex(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 2)
	data := spillBytes(t, warmIndex(t, g, 1, 0))
	used := warmIndex(t, g, 1, 0)
	if _, err := used.ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadFrom merged into a live index")
	}
	// After Reset it is fresh again and must accept.
	used.Reset()
	if _, err := used.ReadFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

func TestSpillEmptyUnboundIndex(t *testing.T) {
	ix := NewSampleIndex(0)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSpillInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Bound || info.Chunks != 0 || info.Explores != 0 {
		t.Fatalf("empty spill info = %+v", info)
	}
	ix2 := NewSampleIndex(0)
	if _, err := ix2.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if ix2.bound {
		t.Fatal("restore of an unbound spill produced a binding")
	}
}

func TestReadSpillInfo(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 4)
	const seed = 17
	ix := warmIndex(t, g, seed, 0)
	st := ix.Stats()
	info, err := ReadSpillInfo(bytes.NewReader(spillBytes(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Bound || info.Seed != seed || info.C != 0.6 {
		t.Fatalf("spill info binding = %+v", info)
	}
	if info.GraphChecksum != g.Checksum() {
		t.Fatalf("spill info checksum %#x != graph %#x", info.GraphChecksum, g.Checksum())
	}
	if info.Chunks != st.Chunks || info.Explores != st.Explores {
		t.Fatalf("spill info counts %d/%d != stats %d/%d", info.Chunks, info.Explores, st.Chunks, st.Explores)
	}
}

// FuzzSpillReader throws arbitrary bytes at the spill reader: the path a
// peer's /v1/snapshot body takes to SampleIndex.ReadFrom when a daemon
// clones it. The harness rewrites the trailing CRC64 to match, so
// mutations get past the checksum and reach entry decoding. ReadFrom and
// ReadSpillInfo never panic; a spill ReadFrom accepts is one
// ReadSpillInfo reads, never leaves entries in an unbound index (the
// first query would adopt them for any graph), and re-spills through
// WriteTo to bytes ReadSpillInfo reads back with the same binding and
// entry counts.
func FuzzSpillReader(f *testing.F) {
	data := spillBytes(f, warmIndex(f, gen.BarabasiAlbert(24, 2, 5), 3, 0))
	f.Add(data)
	f.Add(data[:spillHeaderSize])
	f.Add(data[:len(data)/2])
	f.Add(spillBytes(f, NewSampleIndex(0)))
	unbound := bytes.Clone(data)
	binary.LittleEndian.PutUint16(unbound[6:], 0)
	f.Add(unbound)
	// The first entry twice, its count raised to match.
	first := spillChunkSize
	if data[spillHeaderSize] == 1 {
		first = spillExploreSize
	}
	dup := bytes.Clone(data[:spillHeaderSize+first])
	dup = append(dup, data[spillHeaderSize:]...)
	binary.LittleEndian.PutUint64(dup[40:], binary.LittleEndian.Uint64(data[40:])+1)
	f.Add(dup)
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := len(data); n >= 8 {
			data = bytes.Clone(data)
			binary.LittleEndian.PutUint64(data[n-8:], store.CRC64(data[:n-8]))
		}
		info, infoErr := ReadSpillInfo(bytes.NewReader(data))
		ix := NewSampleIndex(0)
		if _, err := ix.ReadFrom(bytes.NewReader(data)); err != nil {
			return
		}
		if infoErr != nil {
			t.Fatalf("ReadFrom accepted a spill ReadSpillInfo rejects: %v", infoErr)
		}
		if st := ix.Stats(); !ix.bound && st.Chunks+st.Explores > 0 {
			t.Fatalf("an unbound spill restored %d chunks and %d explorations", st.Chunks, st.Explores)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSpillInfo(&buf)
		if err != nil {
			t.Fatalf("a re-spilled index does not read back: %v", err)
		}
		if again.Bound != info.Bound || again.Chunks != info.Chunks || again.Explores != info.Explores {
			t.Fatalf("re-spill reads back as %+v, accepted spill was %+v", again, info)
		}
		if info.Bound && (again.GraphChecksum != info.GraphChecksum || again.Seed != info.Seed ||
			math.Float64bits(again.C) != math.Float64bits(info.C)) {
			t.Fatalf("re-spill changed the binding: %+v, accepted spill was %+v", again, info)
		}
	})
}
