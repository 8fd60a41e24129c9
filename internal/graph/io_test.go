package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/exactsim/exactsim/internal/store"
)

// graphsEqual compares two graphs structurally (the CSR arrays), which
// is what "the same graph" means regardless of backing (heap vs mmap).
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); v < a.n; v++ {
		ai, bi := a.InNeighbors(v), b.InNeighbors(v)
		ao, bo := a.OutNeighbors(v), b.OutNeighbors(v)
		if len(ai) != len(bi) || len(ao) != len(bo) {
			return false
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return false
			}
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
	}
	return true
}

// TestTextToBinaryToMmapRoundTrip drives the full conversion pipeline:
// text edge list → Graph → container file → mmap'd OpenBinary → Graph,
// checking equality and checksum stability at every hop.
func TestTextToBinaryToMmapRoundTrip(t *testing.T) {
	const text = `# tiny directed graph
0 1
1 2
2 0
2 3
3 1
`
	g, err := ReadEdgeList(strings.NewReader(text), false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}

	mm, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !graphsEqual(g, mm) {
		t.Fatal("mmap'd graph differs from the graph that wrote it")
	}
	if g.Checksum() != mm.Checksum() {
		t.Fatalf("checksum drifted across the round trip: %#x vs %#x", g.Checksum(), mm.Checksum())
	}

	// The copy path (ReadBinary from a stream) must agree with both.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, rd) || rd.Checksum() != g.Checksum() {
		t.Fatal("stream-decoded graph differs from the original")
	}
}

func TestOpenBinaryZeroCopyAliasing(t *testing.T) {
	g := triangle()
	path := filepath.Join(t.TempDir(), "tri.snap")
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, mm) {
		t.Fatal("graph mismatch")
	}
	// On platforms where the zero-copy path is live, the CSR slices must
	// genuinely alias the mapping and Close must be safe + idempotent.
	t.Logf("mapped=%v", mm.Mapped())
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	// A heap graph's Close is a no-op.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenBinaryRejectsDamage(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // in the error, when set
	}{
		{"corrupt payload", func(d []byte) []byte { d[40] ^= 0x01; return d }, ""},
		{"truncated", func(d []byte) []byte { return d[:len(d)-9] }, ""},
		{"version from the future", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], store.Version+7)
			return d
		}, ""},
		{"wrong magic", func(d []byte) []byte { d[3] ^= 0xff; return d }, ""},
		// The pre-container format's header: nothing reads it any more.
		{"GSIMRANK magic", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d, 0x4753494d52414e4b)
			return d
		}, "not a snapshot container"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), pristine...))
			if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadBinary on %s: %v", tc.name, err)
			}
			path := filepath.Join(dir, "bad.snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenBinary(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenBinary on %s: %v", tc.name, err)
			}
		})
	}
}

// TestReadEdgeListSurfacesScannerErrors pins the fix for silently
// truncated graphs: a line longer than the scanner's 1 MiB buffer must
// turn into an error, not a graph missing its tail.
func TestReadEdgeListSurfacesScannerErrors(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("0 1\n")
	sb.WriteString("# ")
	sb.WriteString(strings.Repeat("x", 1<<20+16)) // comment line over the buffer cap
	sb.WriteString("\n1 2\n")
	if _, err := ReadEdgeList(strings.NewReader(sb.String()), false); err == nil {
		t.Fatal("over-long line silently ignored")
	}
}

func TestChecksumMatchesSectionCRC(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	f, err := store.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := f.Section(store.SectionGraph)
	if !ok {
		t.Fatal("no graph section")
	}
	if sec.CRC != g.Checksum() {
		t.Fatalf("section CRC %#x != graph.Checksum %#x", sec.CRC, g.Checksum())
	}
	// An independently built identical graph hashes identically; a
	// different graph does not.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	if b.Build().Checksum() != g.Checksum() {
		t.Fatal("identical graphs hash differently")
	}
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	if b2.Build().Checksum() == g.Checksum() {
		t.Fatal("different graphs hash identically")
	}
}
