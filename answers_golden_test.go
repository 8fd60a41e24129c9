package exactsim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	exactsim "github.com/exactsim/exactsim"
)

// answersGoldenPath pins whole answers of every method whose diagonal
// phase runs on diag.BatchCtx, and of ParSim, whose answer is the forward
// propagation kernel (linalg.Operator.ApplyPSparse through ppr.HopsCtx)
// and a backward sweep with no sampling at all: one FNV-64 over each score
// vector's Float64bits. The table was recorded before the diagonal
// kernel's walk and exploration loops were rewritten, and its ParSim rows
// before the propagation kernel gained its dense gather. It must pass
// unchanged against any later kernel, so it is never regenerated: a kernel
// change that moves any bit of any answer fails here.
const answersGoldenPath = "testdata/answers_golden.txt"

// answersGoldenRows returns one "method workers index source hash" row per
// query. ExactSim and its Basic ablation run at one and eight workers, each
// with and without a SampleIndex (an index quantizes sample counts, so its
// answers differ from an index-free run's, but never across workers or
// cache states); Linearization estimates D for every node with Algorithm 2
// and PRSim estimates its hubs' D with Algorithm 3. PRSim's and ParSim's
// forward levels are dense on this graph, so their rows pin the
// propagation kernel's dense path too.
func answersGoldenRows(t *testing.T) []string {
	g := exactsim.GenerateBarabasiAlbert(1200, 4, 7)
	sources := []exactsim.NodeID{0, 37, 1111}
	base := []exactsim.QuerierOption{
		exactsim.WithEpsilon(1e-2),
		exactsim.WithSeed(99),
		exactsim.WithSampleFactor(0.05),
	}
	var rows []string
	run := func(name string, workers int, ix *exactsim.DiagSampleIndex) {
		opts := append(append([]exactsim.QuerierOption(nil), base...), exactsim.WithWorkers(workers))
		tag := "none"
		if ix != nil {
			opts = append(opts, exactsim.WithDiagIndex(ix))
			tag = "index"
		}
		q := newQuerier(t, name, g, opts...)
		for _, src := range sources {
			res, err := q.SingleSource(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("%s %d %s %d %016x", name, workers, tag, src, scoresHash(res.Scores)))
		}
	}
	for _, name := range []string{"exactsim", "exactsim-basic"} {
		for _, workers := range []int{1, 8} {
			run(name, workers, nil)
			run(name, workers, exactsim.NewDiagSampleIndex(0))
		}
	}
	run("linearization", 2, nil)
	run("prsim", 2, nil)
	run("parsim", 2, nil)
	return rows
}

// scoresHash is FNV-64 over the little-endian Float64bits of every score.
func scoresHash(scores []float64) uint64 {
	h := fnv.New64()
	var b [8]byte
	for _, s := range scores {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestAnswersGolden(t *testing.T) {
	data, err := os.ReadFile(answersGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	got := answersGoldenRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
