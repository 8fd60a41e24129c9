// Command snapshot converts graphs into the repository's snapshot
// container format and inspects existing containers.
//
// Usage:
//
//	snapshot convert [-undirected] -o graph.snap edges.txt
//	snapshot inspect warm.snap
//
// convert autodetects its input: a snapshot container or a SNAP-style
// text edge list. The output is always a graph-only container:
// converting a warm snapshot keeps the graph but drops the diagonal
// sample index spill (it is serving-process state — a warning says so;
// regenerate it by serving with -save-snapshot). inspect verifies every
// section checksum (opening does that unconditionally) and prints the
// section table, graph degree structure and — for snapshots written by a
// serving daemon — the diagonal sample index spill's binding and entry
// counts.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/graph"
	"github.com/exactsim/exactsim/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		convert(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  snapshot convert [-undirected] -o out.snap <edges.txt | container.snap>
  snapshot inspect <container.snap>
`)
	os.Exit(2)
}

func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output container path (required)")
	undirected := fs.Bool("undirected", false, "treat a text edge list as undirected")
	fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		usage()
	}
	in := fs.Arg(0)

	start := time.Now()
	g, kind, hadSpill, err := loadAny(in, *undirected)
	if err != nil {
		fatal(err)
	}
	loaded := time.Since(start)
	if hadSpill {
		fmt.Fprintln(os.Stderr, "snapshot: note: input carries a diag-index spill; convert writes a graph-only container (spills are serving-process state — regenerate with exactsimd -save-snapshot)")
	}
	start = time.Now()
	if err := exactsim.SaveBinary(*out, g); err != nil {
		fatal(err)
	}
	fi, _ := os.Stat(*out)
	var size int64
	if fi != nil {
		size = fi.Size()
	}
	fmt.Printf("converted %s (%s) → %s: n=%d m=%d, %d KiB, checksum %#016x (load %v, write %v)\n",
		in, kind, *out, g.N(), g.M(), size>>10, exactsim.GraphChecksum(g),
		loaded.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
}

// loadAny sniffs the input format by its first 8 bytes. hadSpill
// reports whether a container input carried a diag-index section that
// the conversion will not preserve.
func loadAny(path string, undirected bool) (g *exactsim.Graph, kind string, hadSpill bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", false, err
	}
	var head [8]byte
	n, _ := io.ReadFull(f, head[:])
	f.Close()
	if n == 8 && binary.LittleEndian.Uint64(head[:]) == store.Magic {
		// One open pays for everything: verification, the graph, and the
		// does-it-carry-a-spill check.
		cf, err := store.Open(path)
		if err != nil {
			return nil, "", false, err
		}
		g, aliased, err := graph.FromContainer(cf)
		if err != nil {
			cf.Close()
			return nil, "", false, err
		}
		_, spill := cf.Section(store.SectionDiagIndex)
		if !aliased {
			cf.Close()
		}
		return g, "container", spill, nil
	}
	g, err = exactsim.LoadEdgeList(path, undirected)
	return g, "text edge list", false, err
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	start := time.Now()
	info, err := exactsim.InspectSnapshot(path)
	if err != nil {
		fatal(err)
	}
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	fmt.Printf("%s: %d bytes, opened+verified in %v (mmap=%v)\n",
		path, size, time.Since(start).Round(time.Microsecond), info.Mapped)
	names := map[uint32]string{store.SectionGraph: "graph", store.SectionDiagIndex: "diag-index"}
	for _, sec := range info.Sections {
		name := names[sec.ID]
		if name == "" {
			name = fmt.Sprintf("unknown(%d)", sec.ID)
		}
		fmt.Printf("  section %-12s offset=%-10d bytes=%-10d crc64=%#016x\n",
			name, sec.Offset, sec.Bytes, sec.CRC)
	}
	gs := info.GraphStats
	fmt.Printf("  graph: n=%d m=%d avg-degree=%.2f max-in=%d max-out=%d dead-ends=%d checksum=%#016x\n",
		gs.N, gs.M, gs.AvgDegree, gs.MaxInDegree, gs.MaxOutDegree, gs.DeadEnds, info.GraphChecksum)
	if info.Diag == nil {
		fmt.Println("  diag index: none (graph-only container)")
		return
	}
	d := info.Diag
	if !d.Bound {
		fmt.Println("  diag index: empty spill (index was never used)")
		return
	}
	fmt.Printf("  diag index: %d chunks + %d explorations, bound to graph %#016x (c=%g seed=%d, writer budget %d MiB)\n",
		d.Chunks, d.Explores, d.GraphChecksum, d.C, d.Seed, d.BudgetBytes>>20)
	if d.GraphChecksum != info.GraphChecksum {
		fmt.Println("  WARNING: diag spill is bound to a DIFFERENT graph than this container carries; restore will be rejected")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapshot:", err)
	os.Exit(1)
}
