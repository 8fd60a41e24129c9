package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Section is one parsed container section. Payload aliases the File's
// backing bytes (the mmap'd mapping or the in-memory read); treat it as
// read-only, and do not touch it after File.Close.
type Section struct {
	// ID is the section type (SectionGraph, SectionDiagIndex, ...).
	ID uint32
	// Offset is the payload's byte offset in the file — always 8-byte
	// aligned, which is what makes zero-copy reinterpretation possible.
	Offset int64
	// CRC is the payload's verified CRC64.
	CRC uint64
	// Payload is the section's bytes.
	Payload []byte
}

// File is one opened container: the parsed section table over a backing
// byte slice that is either an mmap'd mapping (Open, on platforms that
// support it) or plain memory (the read fallback, OpenReader). Sections
// alias the backing bytes either way; Close releases the mapping, after
// which no Payload may be touched.
type File struct {
	sections []Section
	mapped   bool
	release  func() error
	closed   bool
}

// Open maps path and parses it as a container. Where mmap is available
// the payloads alias the mapping — the graph is served straight out of
// the page cache, shared across processes, with no allocation; elsewhere
// (or if mapping fails) the file is read into memory with io.ReadFull
// behind the same API. Every section checksum is verified before Open
// returns.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if data, release, err := mapFile(f, size); err == nil {
		file, perr := parse(data)
		if perr != nil {
			release()
			return nil, fmt.Errorf("store: %s: %w", path, perr)
		}
		file.mapped = true
		file.release = release
		return file, nil
	}
	// Fallback: bulk read. Payloads alias the heap buffer, so loads stay
	// single-copy (file → buffer) even without mmap.
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	file, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return file, nil
}

// OpenReader reads a whole container from r and parses it. Payloads
// alias the read buffer.
func OpenReader(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading container: %w", err)
	}
	return Parse(data)
}

// Parse parses an in-memory container. Payloads alias data.
func Parse(data []byte) (*File, error) {
	f, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

func parse(data []byte) (*File, error) {
	if len(data) < fileHeaderSize {
		return nil, fmt.Errorf("container truncated: %d bytes, want at least the %d-byte header", len(data), fileHeaderSize)
	}
	if m := getU64(data); m != Magic {
		return nil, fmt.Errorf("bad magic %#x (not a snapshot container)", m)
	}
	if v := getU32(data[8:]); v != Version {
		return nil, fmt.Errorf("unsupported container format version %d (this build reads version %d)", v, Version)
	}
	count := int(getU32(data[12:]))
	// The count field sits outside any CRC (only payloads are
	// checksummed), so bound it by what the file could physically hold
	// — each section costs at least its header plus its trailing CRC —
	// before allocating anything proportional to it.
	if maxSections := (len(data) - fileHeaderSize) / (sectionHeaderSize + 8); count > maxSections {
		return nil, fmt.Errorf("container declares %d sections but only %d bytes follow the header", count, len(data)-fileHeaderSize)
	}
	f := &File{sections: make([]Section, 0, count)}
	off := int64(fileHeaderSize)
	total := int64(len(data))
	for i := 0; i < count; i++ {
		if off+sectionHeaderSize > total {
			return nil, fmt.Errorf("container truncated in section %d/%d header", i+1, count)
		}
		id := getU32(data[off:])
		plen := getU64(data[off+8:])
		payloadOff := off + sectionHeaderSize
		if plen > uint64(total) || payloadOff+int64(plen)+pad8(int64(plen))+8 > total {
			return nil, fmt.Errorf("container truncated in section %d/%d (id %d): payload of %d bytes does not fit", i+1, count, id, plen)
		}
		payload := data[payloadOff : payloadOff+int64(plen) : payloadOff+int64(plen)]
		crcOff := payloadOff + int64(plen) + pad8(int64(plen))
		want := getU64(data[crcOff:])
		if got := CRC64(payload); got != want {
			return nil, fmt.Errorf("section %d/%d (id %d) checksum mismatch: file says %#x, payload hashes to %#x", i+1, count, id, want, got)
		}
		f.sections = append(f.sections, Section{ID: id, Offset: payloadOff, CRC: want, Payload: payload})
		off = crcOff + 8
	}
	return f, nil
}

// Section returns the first section with the given id.
func (f *File) Section(id uint32) (Section, bool) {
	for _, s := range f.sections {
		if s.ID == id {
			return s, true
		}
	}
	return Section{}, false
}

// Sections returns the parsed section table in file order.
func (f *File) Sections() []Section { return f.sections }

// Mapped reports whether the backing bytes are an mmap'd mapping (as
// opposed to the read-into-memory fallback).
func (f *File) Mapped() bool { return f.mapped }

// Close releases the mapping (a no-op for the in-memory fallback, where
// the garbage collector owns the buffer). After Close, section payloads
// — and anything aliasing them, like an OpenBinary graph's CSR arrays —
// must not be touched. Close is idempotent.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.release != nil {
		return f.release()
	}
	return nil
}

// WriteFile writes path atomically, the one way the repository puts a
// container (or any file a loader may open) on disk: write fills a temp
// file in path's directory, which is synced, closed and given mode 0644
// (the temp file's 0600 would survive the rename); beforeRename, when
// non-nil, runs next (a snapshot save rotates its older generations
// there, once the new bytes are safely on disk); then the temp file is
// renamed onto path. A crash or a failure at any step never leaves a
// partial file at path, and a failure removes the temp file.
func WriteFile(path string, write func(io.Writer) error, beforeRename func() error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
