package main

import (
	"fmt"
	"math"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/internal/algo"
)

// checkAnswer verifies what every answer must satisfy, whatever produced
// it: a score for every node, s(u,u) = 1 and 0 ≤ s ≤ c off the diagonal
// (each up to tol, the answer's own error bound), and, when k > 0, a
// top-k list identical to the k best scores of the vector it came with.
func checkAnswer(res *exactsim.QueryResult, topk []exactsim.Entry, src exactsim.NodeID, n, k int, tol float64) error {
	if res == nil || len(res.Scores) != n {
		return fmt.Errorf("source %d: answer lacks its %d-node score vector", src, n)
	}
	if self := res.Scores[src]; !(math.Abs(self-1) <= tol) {
		return fmt.Errorf("source %d: s(u,u) = %g, want 1 ± %g", src, self, tol)
	}
	for j, s := range res.Scores {
		if exactsim.NodeID(j) != src && !(s >= 0 && s <= exactsim.DefaultC+tol) {
			return fmt.Errorf("source %d: s(u,%d) = %g outside [0, c+%g]", src, j, s, tol)
		}
	}
	if k <= 0 {
		return nil
	}
	want := exactsim.TopKOf(res.Scores, k, src)
	if len(topk) != len(want) {
		return fmt.Errorf("source %d: top-k has %d entries, want %d", src, len(topk), len(want))
	}
	for i := range want {
		if topk[i].Idx != want[i].Idx || math.Float64bits(topk[i].Val) != math.Float64bits(want[i].Val) {
			return fmt.Errorf("source %d: top-k entry %d is %v, the scores give %v", src, i, topk[i], want[i])
		}
	}
	return nil
}

// sameBits reports whether two score vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// answerEpsilon is the error bound an answer claims: the achieved bound of
// a partial answer, the planner's effective target of an "auto" answer,
// the (possibly loosened) target the service ran otherwise.
func answerEpsilon(resp exactsim.Response) float64 {
	switch {
	case resp.Partial:
		return resp.AchievedEpsilon
	case resp.Plan != nil:
		return resp.Plan.EffectiveEpsilon
	case resp.Request.Epsilon > 0:
		return resp.Request.Epsilon
	}
	return algo.DefaultEpsilon
}
