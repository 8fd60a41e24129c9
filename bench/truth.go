package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/powermethod"
)

// truthLevels truncates the linearized ground truth: the dropped tail is at
// most c^(L+1)/(1-c) ≈ 1e-10 at c = 0.6, far below any ε the benchmark checks.
const truthLevels = 45

// truth is the paper's §4.1 ground truth for a small graph. The power
// method gives the exact all-pairs matrix S; it is O(n²) in memory, so
// only its diagonal correction D(k,k) = 1 − c·(PᵀSP)(k,k) is kept. Any
// single-source row then follows exactly from S = Σ_ℓ c^ℓ (Pᵀ)^ℓ D P^ℓ in
// O(L·m) time.
type truth struct {
	g *exactsim.Graph
	d []float64
	// hops and back are row's scratch, reused so that checking an answer
	// allocates only the row it returns.
	hops [][]float64
	back [2][]float64
	// buildTime is the power-method time; zero when D came from the cache.
	buildTime time.Duration
}

// loadTruth returns the ground truth for g, reading D from cacheDir when a
// previous run stored it for this graph and computing it otherwise. The
// cache is keyed by the graph's checksum, so a changed generator can never
// be checked against a stale truth.
func loadTruth(ctx context.Context, g *exactsim.Graph, cacheDir string) (*truth, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("truth-D-%016x.bin", exactsim.GraphChecksum(g)))
	if d, err := readFloats(path, g.N()); err == nil {
		return newTruth(g, d), nil
	}
	start := time.Now()
	s, err := powermethod.ComputeCtx(ctx, g, powermethod.Options{C: exactsim.DefaultC, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, fmt.Errorf("power method: %w", err)
	}
	t := newTruth(g, powermethod.ExactD(g, exactsim.DefaultC, s))
	t.buildTime = time.Since(start)
	// The linearized rows must reproduce the power method's own rows; a
	// mismatch is a bug here, and no run may be checked against it.
	for _, src := range []exactsim.NodeID{0, exactsim.NodeID(g.N() / 2), exactsim.NodeID(g.N() - 1)} {
		if err := maxDiff(t.row(src), s.Row(int(src)), 1e-8); err != nil {
			return nil, fmt.Errorf("linearized truth disagrees with the power method at source %d: %w", src, err)
		}
	}
	if err := writeFloats(path, t.d); err != nil {
		return nil, err
	}
	return t, nil
}

func newTruth(g *exactsim.Graph, d []float64) *truth {
	t := &truth{g: g, d: d, hops: make([][]float64, truthLevels+1)}
	for l := range t.hops {
		t.hops[l] = make([]float64, g.N())
	}
	t.back = [2][]float64{make([]float64, g.N()), make([]float64, g.N())}
	return t
}

// row returns s(src, ·): hop vectors h_ℓ = P^ℓ e_src forward, then
// s = D h_L and s ← D h_ℓ + c·Pᵀ s back down to ℓ = 0.
func (t *truth) row(src exactsim.NodeID) []float64 {
	g, n, hops := t.g, t.g.N(), t.hops
	clear(hops[0])
	hops[0][src] = 1
	for l := 1; l <= truthLevels; l++ {
		next := hops[l]
		clear(next)
		for j, x := range hops[l-1] {
			if x == 0 {
				continue
			}
			in := g.InNeighbors(exactsim.NodeID(j))
			w := x / float64(len(in))
			for _, v := range in {
				next[v] += w
			}
		}
	}
	s, next := t.back[0], t.back[1]
	for j := range s {
		s[j] = t.d[j] * hops[truthLevels][j]
	}
	for l := truthLevels - 1; l >= 0; l-- {
		for j := range next {
			next[j] = 0
			if in := g.InNeighbors(exactsim.NodeID(j)); len(in) > 0 {
				var sum float64
				for _, v := range in {
					sum += s[v]
				}
				next[j] = exactsim.DefaultC * sum / float64(len(in))
			}
			next[j] += t.d[j] * hops[l][j]
		}
		s, next = next, s
	}
	return append(make([]float64, 0, n), s...)
}

// check compares one answer with the truth: its max error and its
// precision@k.
func (t *truth) check(src exactsim.NodeID, scores []float64, k int) (maxErr, precision float64) {
	want := t.row(src)
	return exactsim.MaxError(scores, want), exactsim.PrecisionAtK(scores, want, k, src)
}

func maxDiff(a, b []float64, tol float64) error {
	for i := range a {
		if d := math.Abs(a[i] - b[i]); !(d <= tol) {
			return fmt.Errorf("entry %d differs by %g", i, d)
		}
	}
	return nil
}

func readFloats(path string, n int) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) != 8*n {
		return nil, fmt.Errorf("%s: %d bytes, want %d", path, len(b), 8*n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// writeFloats stores xs through a temporary file and a rename, so an
// interrupted run never leaves a truncated cache behind.
func writeFloats(path string, xs []float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("truth cache: %w", err)
	}
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("truth cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("truth cache: %w", err)
	}
	return nil
}
