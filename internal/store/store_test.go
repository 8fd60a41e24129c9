package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeContainer builds a two-section container in memory.
func writeContainer(t *testing.T, a, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Section(SectionGraph, int64(len(a)), func(sw io.Writer) error {
		_, err := sw.Write(a)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Section(SectionDiagIndex, int64(len(b)), func(sw io.Writer) error {
		_, err := sw.Write(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	a := []byte("the graph payload, deliberately unaligned length!")
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	data := writeContainer(t, a, b)

	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sections()) != 2 {
		t.Fatalf("sections = %d, want 2", len(f.Sections()))
	}
	ga, ok := f.Section(SectionGraph)
	if !ok || !bytes.Equal(ga.Payload, a) {
		t.Fatalf("graph section payload mismatch (ok=%v)", ok)
	}
	if ga.Offset%8 != 0 {
		t.Fatalf("graph payload offset %d not 8-aligned", ga.Offset)
	}
	di, ok := f.Section(SectionDiagIndex)
	if !ok || !bytes.Equal(di.Payload, b) {
		t.Fatalf("diag section payload mismatch (ok=%v)", ok)
	}
	if di.Offset%8 != 0 {
		t.Fatalf("diag payload offset %d not 8-aligned", di.Offset)
	}
	if _, ok := f.Section(99); ok {
		t.Fatal("found a section that was never written")
	}
}

func TestContainerOpenMmap(t *testing.T) {
	a := make([]byte, 4096)
	for i := range a {
		a[i] = byte(i)
	}
	data := writeContainer(t, a, []byte("diag"))
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sec, ok := f.Section(SectionGraph)
	if !ok || !bytes.Equal(sec.Payload, a) {
		t.Fatal("mmap'd payload differs from written payload")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	data := writeContainer(t, []byte("payload-one"), []byte("payload-two"))

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"clobbered magic", func(d []byte) []byte { d[0] ^= 0xff; return d }},
		{"future version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], Version+1)
			return d
		}},
		// The count field is outside CRC coverage; an absurd value must
		// come back as a parse error, not a giant allocation.
		{"absurd section count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12:], 0xffffffff)
			return d
		}},
		{"payload bit flip", func(d []byte) []byte { d[fileHeaderSize+sectionHeaderSize] ^= 0x01; return d }},
		{"crc bit flip", func(d []byte) []byte { d[len(d)-1] ^= 0x80; return d }},
		{"truncated header", func(d []byte) []byte { return d[:10] }},
		{"truncated mid-payload", func(d []byte) []byte { return d[:fileHeaderSize+sectionHeaderSize+3] }},
		{"truncated before last crc", func(d []byte) []byte { return d[:len(d)-4] }},
		{"missing second section", func(d []byte) []byte { return d[:fileHeaderSize+sectionHeaderSize+16+8] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			if _, err := Parse(mutated); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			// The file-backed path must reject identically.
			path := filepath.Join(t.TempDir(), "bad.snap")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); err == nil {
				t.Fatalf("%s accepted by Open", tc.name)
			}
		})
	}
}

func TestWriterEnforcesDeclaredShape(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong payload length must fail.
	if _, err := w.Section(SectionGraph, 10, func(sw io.Writer) error {
		_, err := sw.Write([]byte("short"))
		return err
	}); err == nil {
		t.Fatal("length mismatch accepted")
	}

	buf.Reset()
	w, _ = NewWriter(&buf, 2)
	if _, err := w.Section(SectionGraph, 1, func(sw io.Writer) error {
		_, err := sw.Write([]byte{7})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted a container missing a declared section")
	}

	buf.Reset()
	w, _ = NewWriter(&buf, 0)
	if _, err := w.Section(SectionGraph, 0, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("undeclared section accepted")
	}
}

func TestAliasRoundTrip(t *testing.T) {
	xs := []int64{-1, 0, 1, 1 << 40}
	b, ok := AliasBytes64(xs)
	if ok {
		back, ok2 := AliasInt64s(b)
		if !ok2 {
			t.Fatal("AliasInt64s declined bytes produced by AliasBytes64")
		}
		for i := range xs {
			if back[i] != xs[i] {
				t.Fatalf("alias round trip [%d] = %d, want %d", i, back[i], xs[i])
			}
		}
	}
	ys := []int32{-5, 9, 1 << 20}
	b32, ok := AliasBytes32(ys)
	if ok {
		back, ok2 := AliasInt32s(b32)
		if !ok2 {
			t.Fatal("AliasInt32s declined bytes produced by AliasBytes32")
		}
		for i := range ys {
			if back[i] != ys[i] {
				t.Fatalf("alias32 round trip [%d] = %d, want %d", i, back[i], ys[i])
			}
		}
	}
	// Regardless of platform, the encoded image must be little-endian:
	// cross-check against encoding/binary.
	if ok {
		var want bytes.Buffer
		if err := binary.Write(&want, binary.LittleEndian, ys); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b32, want.Bytes()) {
			t.Fatal("aliased bytes are not the little-endian encoding")
		}
	}
	// A length that is not a multiple of the element size must be
	// declined, and so must a misaligned base pointer (constructed from a
	// guaranteed-aligned int64 buffer shifted by 4 bytes).
	if _, ok := AliasInt64s(make([]byte, 17)); ok {
		t.Fatal("aliased a slice with non-multiple-of-8 length")
	}
	if aligned, ok := AliasBytes64(make([]int64, 3)); ok {
		if _, ok := AliasInt64s(aligned[4 : 4+16]); ok {
			t.Fatal("aliased a misaligned base pointer")
		}
	}
}

// TestWriteFile: the atomic writer lands the full bytes at path with mode
// 0644, runs the pre-rename step while path still holds the old file, and
// on a failed write or a failed pre-rename step leaves path as it was and
// no temp file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.snap")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if err := WriteFile(path, write("one"), nil); err != nil {
		t.Fatal(err)
	}
	var before string
	if err := WriteFile(path, write("two"), func() error { before = read(); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "two" || before != "one" {
		t.Fatalf("path holds %q (%q before the rename), want \"two\" (\"one\")", got, before)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("mode %v, want 0644", mode)
	}

	boom := io.ErrUnexpectedEOF
	failed := func(io.Writer) error { return boom }
	if err := WriteFile(path, failed, nil); !errors.Is(err, boom) {
		t.Fatalf("failed write: err = %v, want %v", err, boom)
	}
	if err := WriteFile(path, write("three"), func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed pre-rename step: err = %v, want %v", err, boom)
	}
	if got := read(); got != "two" {
		t.Fatalf("a failed save changed path to %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files left in the directory, want only f.snap", len(entries))
	}
}
