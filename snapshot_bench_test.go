package exactsim_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// The snapshot benchmark pair: how fast a process gets from "nothing in
// memory" to "graph served" (text parse vs binary mmap), and from
// "process start" to "first single-source answer" (cold vs
// snapshot-restored). The warm/cold ratios are the snapshot store's
// reason to exist; run them by hand with -bench 'GraphLoad|FirstQuery'.

const benchSnapSeed = 99

func benchSnapshotGraph() *exactsim.Graph {
	return exactsim.GenerateBarabasiAlbert(2000, 4, benchSnapSeed)
}

func benchSnapshotOptions() exactsim.ServiceOptions {
	return exactsim.ServiceOptions{
		CacheSize: -1, // measure computation, not the result LRU
		QuerierOptions: []exactsim.QuerierOption{
			exactsim.WithSeed(benchSnapSeed),
			exactsim.WithEpsilon(0.02),
		},
	}
}

// writeBenchFiles materializes the same graph as a text edge list and a
// binary container, returning both paths.
func writeBenchFiles(b *testing.B) (textPath, binPath string) {
	b.Helper()
	g := benchSnapshotGraph()
	dir := b.TempDir()
	textPath = filepath.Join(dir, "g.txt")
	f, err := os.Create(textPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := exactsim.WriteEdgeList(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	binPath = filepath.Join(dir, "g.snap")
	if err := exactsim.SaveBinary(binPath, g); err != nil {
		b.Fatal(err)
	}
	return textPath, binPath
}

func BenchmarkGraphLoadText(b *testing.B) {
	textPath, _ := writeBenchFiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := exactsim.LoadEdgeList(textPath, false)
		if err != nil {
			b.Fatal(err)
		}
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkGraphLoadBinaryMmap(b *testing.B) {
	_, binPath := writeBenchFiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := exactsim.OpenBinary(binPath)
		if err != nil {
			b.Fatal(err)
		}
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
		g.Close()
	}
}

// benchFirstQuery measures service construction + one single-source
// query — restart-to-first-answer latency — with start supplying the
// freshly started service each iteration.
func benchFirstQuery(b *testing.B, src exactsim.NodeID, start func() *exactsim.Service) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := start()
		resp := svc.Query(context.Background(), exactsim.Request{Source: src})
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}

func BenchmarkFirstQueryColdStart(b *testing.B) {
	g := benchSnapshotGraph()
	benchFirstQuery(b, 1, func() *exactsim.Service {
		svc, err := exactsim.NewService(g, benchSnapshotOptions())
		if err != nil {
			b.Fatal(err)
		}
		return svc
	})
}

func BenchmarkFirstQuerySnapshotRestored(b *testing.B) {
	g := benchSnapshotGraph()
	writer, err := exactsim.NewService(g, benchSnapshotOptions())
	if err != nil {
		b.Fatal(err)
	}
	// Warm exactly the source the benchmark queries: the snapshot then
	// carries every diag chunk that query needs.
	if resp := writer.Query(context.Background(), exactsim.Request{Source: 1}); resp.Err != nil {
		b.Fatal(resp.Err)
	}
	path := filepath.Join(b.TempDir(), "warm.snap")
	if err := writer.SaveSnapshot(path); err != nil {
		b.Fatal(err)
	}
	writer.Close()

	benchFirstQuery(b, 1, func() *exactsim.Service {
		svc, err := exactsim.OpenSnapshot(path, benchSnapshotOptions())
		if err != nil {
			b.Fatal(err)
		}
		return svc
	})
}
