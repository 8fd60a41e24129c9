// Package sparse implements the sparse/dense vector kit shared by the
// linear-algebra phases of every SimRank method in this repository.
//
// The central object is Vector, a sorted (index, value) list. ExactSim's
// sparse-linearization optimization (paper §3.2, Lemma 2) is implemented
// here as Truncate: dropping entries below (1−√c)²ε bounds the number of
// surviving entries across all levels by 1/((1−√c)²ε) — the Pigeonhole
// argument — which frees the forward phase from its O(n·log(1/ε)) memory.
package sparse

import (
	"slices"
	"sort"
)

// Vector is a sparse vector: parallel slices of strictly increasing indices
// and their values. The zero value is an empty vector.
type Vector struct {
	Idx []int32
	Val []float64
}

// Len returns the number of stored entries.
func (v *Vector) Len() int { return len(v.Idx) }

// Bytes returns the memory footprint of the stored entries, used for the
// paper's Table 3 memory accounting.
func (v *Vector) Bytes() int64 { return int64(len(v.Idx))*4 + int64(len(v.Val))*8 }

// Sum returns the sum of all stored values.
func (v *Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x
	}
	return s
}

// Norm2Squared returns Σ v(k)², the quantity ‖π‖² that drives the paper's
// π²-sampling optimization (Lemma 3).
func (v *Vector) Norm2Squared() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x * x
	}
	return s
}

// Get returns the value at index i (0 if absent) by binary search.
func (v *Vector) Get(i int32) float64 {
	pos := sort.Search(len(v.Idx), func(p int) bool { return v.Idx[p] >= i })
	if pos < len(v.Idx) && v.Idx[pos] == i {
		return v.Val[pos]
	}
	return 0
}

// Clone returns a deep copy.
func (v *Vector) Clone() Vector {
	return Vector{Idx: append([]int32(nil), v.Idx...), Val: append([]float64(nil), v.Val...)}
}

// Scale multiplies every value by s in place.
func (v *Vector) Scale(s float64) {
	for i := range v.Val {
		v.Val[i] *= s
	}
}

// Truncate removes entries with value ≤ threshold in place (values in this
// repository are non-negative probabilities, so no absolute value is taken).
// This is the sparse-linearization primitive of paper Lemma 2.
func (v *Vector) Truncate(threshold float64) {
	if threshold <= 0 {
		return
	}
	out := 0
	for i, x := range v.Val {
		if x > threshold {
			v.Idx[out] = v.Idx[i]
			v.Val[out] = x
			out++
		}
	}
	v.Idx = v.Idx[:out]
	v.Val = v.Val[:out]
}

// AddInto scatters v (times scale) into the dense slice dst.
func (v *Vector) AddInto(dst []float64, scale float64) {
	for i, idx := range v.Idx {
		dst[idx] += scale * v.Val[i]
	}
}

// FromDense extracts entries of dense strictly greater than threshold into a
// new Vector, allocated to exactly the kept count. Pass threshold = 0 to
// keep all positive entries; negative thresholds keep everything nonzero.
func FromDense(dense []float64, threshold float64) Vector {
	keep := func(x float64) bool { return x > threshold || (threshold < 0 && x != 0) }
	kept := 0
	for _, x := range dense {
		if keep(x) {
			kept++
		}
	}
	v := Vector{Idx: make([]int32, 0, kept), Val: make([]float64, 0, kept)}
	for i, x := range dense {
		if keep(x) {
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, x)
		}
	}
	return v
}

// ToDense materializes v as a dense slice of length n.
func (v *Vector) ToDense(n int) []float64 {
	dense := make([]float64, n)
	for i, idx := range v.Idx {
		dense[idx] = v.Val[i]
	}
	return dense
}

// Dot returns the dot product of two sparse vectors (merge join).
func Dot(a, b *Vector) float64 {
	i, j := 0, 0
	s := 0.0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// Accumulator builds sparse vectors by random-index accumulation without
// paying O(n) per build. It keeps a dense scratch array plus the list of
// touched indices; Reset is O(touched), not O(n).
type Accumulator struct {
	dense   []float64
	touched []int32
	mark    []bool
}

// NewAccumulator returns an accumulator over index space [0, n).
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{dense: make([]float64, n), mark: make([]bool, n)}
}

// Add accumulates v at index i.
func (a *Accumulator) Add(i int32, v float64) {
	if !a.mark[i] {
		a.mark[i] = true
		a.touched = append(a.touched, i)
	}
	a.dense[i] += v
}

// Get returns the current value at index i.
func (a *Accumulator) Get(i int32) float64 { return a.dense[i] }

// Touched returns the number of distinct indices accumulated.
func (a *Accumulator) Touched() int { return len(a.touched) }

// Build extracts entries strictly greater than threshold as a sorted sparse
// Vector, allocated to exactly the kept count, and resets the accumulator.
// Entries at or below the threshold are dropped before the index sort, so
// a truncated build sorts only what survives. The sort is slices.Sort —
// the reflection-based sort.Slice swapper showed up as ~18% of the
// diagonal phase's profile before the switch.
func (a *Accumulator) Build(threshold float64) Vector {
	kept := a.touched[:0]
	for _, idx := range a.touched {
		if a.dense[idx] > threshold {
			kept = append(kept, idx)
			continue
		}
		a.dense[idx] = 0
		a.mark[idx] = false
	}
	slices.Sort(kept)
	v := Vector{Idx: make([]int32, len(kept)), Val: make([]float64, len(kept))}
	for i, idx := range kept {
		v.Idx[i] = idx
		v.Val[i] = a.dense[idx]
		a.dense[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
	return v
}

// Reset clears the accumulator without building a vector.
func (a *Accumulator) Reset() {
	for _, idx := range a.touched {
		a.dense[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
}

// DrainInto folds a's accumulated entries into dst (in a's touched order,
// i.e. first-touch order) and resets a. It is the merge step of the
// parallel sparse kernels: per-shard accumulators drain into the main one
// in fixed shard order, so the floating-point addition order — and hence
// the result, bit for bit — is independent of worker count and scheduling.
func (a *Accumulator) DrainInto(dst *Accumulator) {
	for _, idx := range a.touched {
		dst.Add(idx, a.dense[idx])
		a.dense[idx] = 0
		a.mark[idx] = false
	}
	a.touched = a.touched[:0]
}
