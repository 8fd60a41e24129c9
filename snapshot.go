package exactsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/exactsim/exactsim/internal/diag"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/store"
)

// Snapshots make the diagonal sample index durable: everything a warm
// serving process has paid for — the graph in instantly-loadable binary
// CSR form, plus the epoch's accumulated diag chunks and explorations —
// lands in one versioned, checksummed container (internal/store) that a
// restarting process (or a fresh fleet member) opens in milliseconds.
// The graph section is mmap'd and served zero-copy where the platform
// allows; the diag spill is bound to (graph checksum, c, seed), so a
// snapshot restored against the wrong graph is rejected rather than
// silently wrong. Queries on a restored service are bit-identical to
// queries on the process that wrote the snapshot: the graph bytes are
// identical, every algorithm is a deterministic function of
// (graph, seed, options), and cached diag entries are interchangeable
// bit-for-bit with recomputation (see internal/diag).

// Snapshot writes the service's current graph generation — graph plus
// diagonal sample index spill — as a snapshot container on w. It is a
// pure read: the service keeps serving, and the snapshot is a
// consistent point-in-time image of one epoch. Restore it with
// OpenSnapshot (or fetch it from a live daemon via /v1/snapshot).
func (s *Service) Snapshot(w io.Writer) error {
	return s.SnapshotTo(w, nil)
}

// SnapshotTo is Snapshot with a hook invoked with the epoch being
// written, after that generation is pinned but before its first byte
// goes out — transports use it to emit the epoch as a header on a
// stream they cannot buffer, guaranteed to label the generation
// actually streamed even when an Update races the call.
func (s *Service) SnapshotTo(w io.Writer, before func(epoch uint64)) error {
	// Register with the snapshot refcount before releasing closeMu:
	// Close releases a snapshot-opened service's mmap'd graph and must
	// not pull the mapping out from under a stream in progress. A
	// refcount — not holding the read lock across the write — keeps one
	// slow snapshot consumer from wedging the lock queue for everyone
	// else; Close waits on it only at the very end, just before the
	// munmap.
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ToError(ErrServiceClosed)
	}
	s.snapshots.Add(1)
	s.closeMu.RUnlock()
	defer s.snapshots.Done()
	st := s.state.Load()
	if before != nil {
		before(st.epoch)
	}
	return writeSnapshot(w, st.g, st.diagIdx)
}

// writeSnapshot assembles one container from a graph and an optional
// diag index.
func writeSnapshot(w io.Writer, g *Graph, ix *DiagSampleIndex) error {
	var spill []byte
	if ix != nil {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return fmt.Errorf("exactsim: spilling diag index: %w", err)
		}
		spill = buf.Bytes()
	}
	sections := 1
	if spill != nil {
		sections = 2
	}
	sw, err := store.NewWriter(w, sections)
	if err != nil {
		return err
	}
	if _, err := sw.Section(store.SectionGraph, graph.BinarySize(g), func(pw io.Writer) error {
		return graph.EncodeCSR(pw, g)
	}); err != nil {
		return err
	}
	if spill != nil {
		if _, err := sw.Section(store.SectionDiagIndex, int64(len(spill)), func(pw io.Writer) error {
			_, werr := pw.Write(spill)
			return werr
		}); err != nil {
			return err
		}
	}
	return sw.Close()
}

// SaveSnapshot writes a service snapshot to path atomically (temp file
// + rename): a crash mid-write can never leave a half-container where
// the next boot's -snapshot flag would find it.
func (s *Service) SaveSnapshot(path string) error {
	return s.SaveSnapshotKeep(path, 0)
}

// SaveSnapshotKeep is SaveSnapshot with generation rotation: before the
// new container lands at path, the previous one moves to path.1, the one
// before to path.2, … up to path.keep (the oldest is dropped). Rotation
// happens only after the new container's bytes are safely on disk, so a
// failed save never consumes a generation — and a boot that finds path
// corrupt (torn write, bit rot) can fall back to path.1 instead of a
// cold build (see BootSnapshot). keep ≤ 0 rotates nothing.
func (s *Service) SaveSnapshotKeep(path string, keep int) error {
	write := func(w io.Writer) error {
		if s.opts.SnapshotWriteWrap != nil {
			w = s.opts.SnapshotWriteWrap(w)
		}
		return s.Snapshot(w)
	}
	// Runs once the replacement container exists in full: only then is it
	// safe to shift the old generations (oldest first, path.keep falls
	// off).
	rotate := func() error {
		for i := keep - 1; i >= 1; i-- {
			if err := renameGen(genPath(path, i), genPath(path, i+1)); err != nil {
				return err
			}
		}
		if keep > 0 {
			return renameGen(path, genPath(path, 1))
		}
		return nil
	}
	return store.WriteFile(path, write, rotate)
}

// genPath names generation i of a snapshot path: path itself for i=0,
// path.1, path.2, … for its predecessors.
func genPath(path string, i int) string {
	if i <= 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// renameGen is os.Rename that treats a missing source as "nothing to
// rotate" — the normal case until keep saves have happened.
func renameGen(from, to string) error {
	if err := os.Rename(from, to); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// BootReport tells the story of one BootSnapshot call: which generation
// files were probed, which were damaged and moved aside, and which one
// (if any) booted. Daemons log it so a quarantine never happens silently.
type BootReport struct {
	// Opened is the generation that booted ("" if none did).
	Opened string
	// Tried lists every generation probed, newest first.
	Tried []string
	// Quarantined lists the damaged generations, each already renamed to
	// its original name + ".quarantine" so the evidence survives for a
	// post-mortem and the next boot doesn't trip over the same bytes.
	Quarantined []string
}

// BootSnapshot opens the newest intact snapshot generation at path:
// path itself first, then path.1, path.2, … (the SaveSnapshotKeep
// rotation chain) until one opens. A generation that fails to open —
// torn write, flipped bits, grafted sections; anything the container
// checksums or the diag-spill binding reject — is renamed to
// <name>.quarantine and the next-older generation is tried. The report
// is returned even alongside an error, so callers can log what was
// probed and what was impounded before falling back to a cold build.
func BootSnapshot(path string, opts ServiceOptions) (*Service, *BootReport, error) {
	rep := &BootReport{}
	var errs []error
	for i := 0; ; i++ {
		cand := genPath(path, i)
		if _, err := os.Stat(cand); err != nil {
			if os.IsNotExist(err) {
				if i == 0 {
					// The primary may be gone (quarantined by a previous
					// boot) while rotated generations remain — keep probing.
					continue
				}
				break // the rotation chain ends at the first gap
			}
			return nil, rep, err
		}
		rep.Tried = append(rep.Tried, cand)
		s, err := OpenSnapshot(cand, opts)
		if err == nil {
			rep.Opened = cand
			return s, rep, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", cand, err))
		q := cand + ".quarantine"
		if rerr := os.Rename(cand, q); rerr != nil {
			errs = append(errs, fmt.Errorf("quarantining %s: %w", cand, rerr))
		} else {
			rep.Quarantined = append(rep.Quarantined, q)
		}
	}
	if len(rep.Tried) == 0 {
		return nil, rep, Errorf(CodeNotFound, "exactsim: no snapshot generations at %s", path)
	}
	return nil, rep, Errorf(CodeInvalidArgument,
		"exactsim: every snapshot generation at %s failed to open: %v", path, errors.Join(errs...))
}

// OpenSnapshot starts a Service from a snapshot container: the graph is
// opened zero-copy (mmap-backed where possible) and the diagonal sample
// index spill, when present and indexing is enabled, is restored into
// the initial graph generation — so the first query after a restart
// starts as warm as the process that wrote the snapshot. The spill's
// binding is verified against the container's own graph section; a
// mismatch (a grafted or tampered container) is rejected with
// CodeInvalidArgument. The service owns the mapping and releases it on
// Close.
//
// The restored index binds to the (c, seed) the writer ran with; a
// service configured with different QuerierOptions simply serves cold
// (the index bypasses on mismatch) — wrong options can cost the warmth,
// never the exactness.
func OpenSnapshot(path string, opts ServiceOptions) (*Service, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	g, aliased, err := graph.FromContainer(f)
	if err != nil {
		f.Close()
		return nil, Errorf(CodeInvalidArgument, "exactsim: %v", err)
	}

	var restored *DiagSampleIndex
	if sec, ok := f.Section(store.SectionDiagIndex); ok && opts.DiagIndexBytes >= 0 {
		ix := NewDiagSampleIndex(opts.DiagIndexBytes)
		if _, err := ix.ReadFrom(bytes.NewReader(sec.Payload)); err != nil {
			f.Close()
			return nil, Errorf(CodeInvalidArgument, "exactsim: %v", err)
		}
		if _, pending := ix.RestoredChecksum(); pending {
			// Bind the spill to the graph that arrived in the same
			// container. The graph's checksum is the verified section CRC,
			// so this is an O(1) comparison — and it catches containers
			// whose sections come from different graphs.
			if err := ix.BindRestored(g); err != nil {
				f.Close()
				return nil, Errorf(CodeInvalidArgument, "exactsim: %v", err)
			}
		}
		restored = ix
	}

	s, err := newService(g, opts, restored)
	if err != nil {
		f.Close()
		return nil, err
	}
	if aliased {
		// The graph aliases the container: the service owns both and
		// releases the mapping on Close.
		s.graphCloser = g
	} else {
		f.Close()
	}
	return s, nil
}

// InspectSnapshot describes a snapshot container without starting a
// service: section shapes, the graph's degree structure, and the diag
// spill binding. The graph section is fully validated (checksums always
// are); cmd/snapshot's inspect command prints the result.
type SnapshotInfo struct {
	// Mapped reports whether this open used the zero-copy mmap path.
	Mapped bool
	// Sections lists the container sections in file order.
	Sections []SnapshotSection
	// GraphStats summarizes the graph section.
	GraphStats GraphStats
	// GraphChecksum is the graph section's verified CRC64 — the identity
	// the diag spill binds to.
	GraphChecksum uint64
	// Diag holds the spill header when the container carries one.
	Diag *diag.SpillInfo
}

// SnapshotSection is one section of an inspected container.
type SnapshotSection struct {
	ID     uint32
	Offset int64
	Bytes  int64
	CRC    uint64
}

// InspectSnapshot opens, verifies and summarizes a snapshot container.
func InspectSnapshot(path string) (*SnapshotInfo, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info := &SnapshotInfo{Mapped: f.Mapped()}
	for _, sec := range f.Sections() {
		info.Sections = append(info.Sections, SnapshotSection{
			ID: sec.ID, Offset: sec.Offset, Bytes: int64(len(sec.Payload)), CRC: sec.CRC,
		})
	}
	g, _, err := graph.FromContainer(f)
	if err != nil {
		return nil, err
	}
	info.GraphStats = Stats(g)
	info.GraphChecksum = g.Checksum()
	if sec, ok := f.Section(store.SectionDiagIndex); ok {
		di, err := diag.ReadSpillInfo(bytes.NewReader(sec.Payload))
		if err != nil {
			return nil, err
		}
		info.Diag = &di
	}
	return info, nil
}

// OpenBinary opens a binary graph file zero-copy: where the platform
// allows, the file is mmap'd and the graph's CSR arrays alias the
// mapping (no parsing, no allocation — Close the graph to release it).
// Elsewhere the same call transparently decodes into memory.
func OpenBinary(path string) (*Graph, error) { return graph.OpenBinary(path) }
