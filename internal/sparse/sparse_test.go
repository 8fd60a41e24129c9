package sparse

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/exactsim/exactsim/internal/rng"
)

func vec(pairs ...float64) Vector {
	var v Vector
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Idx = append(v.Idx, int32(pairs[i]))
		v.Val = append(v.Val, pairs[i+1])
	}
	return v
}

func TestVectorBasics(t *testing.T) {
	v := vec(0, 0.5, 3, 0.25, 7, 0.25)
	if v.Len() != 3 {
		t.Fatalf("Len=%d", v.Len())
	}
	if got := v.Sum(); math.Abs(got-1.0) > 1e-15 {
		t.Fatalf("Sum=%g", got)
	}
	if got := v.Norm2Squared(); math.Abs(got-(0.25+0.0625+0.0625)) > 1e-15 {
		t.Fatalf("Norm2Squared=%g", got)
	}
	if v.Get(3) != 0.25 || v.Get(4) != 0 || v.Get(7) != 0.25 {
		t.Fatal("Get broken")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := vec(1, 2.0)
	c := v.Clone()
	c.Val[0] = 99
	if v.Val[0] != 2.0 {
		t.Fatal("Clone aliases original")
	}
}

func TestScale(t *testing.T) {
	v := vec(0, 1.0, 5, 3.0)
	v.Scale(0.5)
	if v.Val[0] != 0.5 || v.Val[1] != 1.5 {
		t.Fatalf("Scale result %v", v.Val)
	}
}

func TestTruncate(t *testing.T) {
	v := vec(0, 0.5, 1, 0.01, 2, 0.3, 3, 0.005)
	v.Truncate(0.01) // strictly-greater survives
	if v.Len() != 2 {
		t.Fatalf("after truncate: %v", v)
	}
	if v.Get(0) != 0.5 || v.Get(2) != 0.3 {
		t.Fatal("wrong survivors")
	}
	// zero threshold is a no-op
	w := vec(0, 0.1)
	w.Truncate(0)
	if w.Len() != 1 {
		t.Fatal("Truncate(0) should keep entries")
	}
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	dense := []float64{0, 0.5, 0, 0.25, 0, 0, 0.25}
	v := FromDense(dense, 0)
	if v.Len() != 3 {
		t.Fatalf("FromDense kept %d", v.Len())
	}
	back := v.ToDense(len(dense))
	if !reflect.DeepEqual(dense, back) {
		t.Fatalf("round trip: %v vs %v", dense, back)
	}
}

func TestAddInto(t *testing.T) {
	v := vec(1, 0.5, 3, 1.0)
	dst := make([]float64, 5)
	v.AddInto(dst, 2.0)
	want := []float64{0, 1.0, 0, 2.0, 0}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("AddInto: %v", dst)
	}
}

func TestDot(t *testing.T) {
	a := vec(0, 1.0, 2, 2.0, 5, 3.0)
	b := vec(1, 1.0, 2, 4.0, 5, 0.5)
	if got := Dot(&a, &b); math.Abs(got-(2*4+3*0.5)) > 1e-15 {
		t.Fatalf("Dot=%g", got)
	}
	empty := Vector{}
	if Dot(&a, &empty) != 0 {
		t.Fatal("Dot with empty should be 0")
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(10)
	a.Add(5, 1.0)
	a.Add(2, 0.5)
	a.Add(5, 1.0)
	if a.Touched() != 2 {
		t.Fatalf("Touched=%d", a.Touched())
	}
	if a.Get(5) != 2.0 {
		t.Fatalf("Get(5)=%g", a.Get(5))
	}
	v := a.Build(0)
	if !reflect.DeepEqual(v.Idx, []int32{2, 5}) {
		t.Fatalf("Build idx %v", v.Idx)
	}
	if v.Val[0] != 0.5 || v.Val[1] != 2.0 {
		t.Fatalf("Build val %v", v.Val)
	}
	// accumulator must be clean after Build
	if a.Touched() != 0 || a.Get(5) != 0 {
		t.Fatal("Build did not reset")
	}
	a.Add(1, 0.001)
	a.Add(2, 0.5)
	v2 := a.Build(0.01)
	if v2.Len() != 1 || v2.Idx[0] != 2 {
		t.Fatalf("threshold build: %v", v2)
	}
}

// TestAccumulatorBuildThreshold: Build keeps exactly the entries above the
// threshold, sorted, in slices of exact capacity, and the next build sees
// neither a dropped nor a kept entry's mark or value.
func TestAccumulatorBuildThreshold(t *testing.T) {
	a := NewAccumulator(16)
	for _, e := range []struct {
		i int32
		v float64
	}{{9, 0.5}, {3, 0.25}, {12, 0.1}, {1, 0.3}, {7, 0.125}, {3, 0}, {12, 0.2}} {
		a.Add(e.i, e.v)
	}
	v := a.Build(0.25) // 3 sits at the threshold, 7 below it
	sum12 := 0.1
	sum12 += 0.2 // rounded as the accumulator rounds it
	if !reflect.DeepEqual(v.Idx, []int32{1, 9, 12}) || !reflect.DeepEqual(v.Val, []float64{0.3, 0.5, sum12}) {
		t.Fatalf("Build(0.25) = %v %v", v.Idx, v.Val)
	}
	if cap(v.Idx) != len(v.Idx) || cap(v.Val) != len(v.Val) {
		t.Fatalf("capacities %d, %d for %d entries", cap(v.Idx), cap(v.Val), v.Len())
	}
	for i := int32(0); i < 16; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("value %g left at %d", a.Get(i), i)
		}
	}
	a.Add(7, 0.5) // dropped last time
	a.Add(9, 1)   // kept last time
	if a.Touched() != 2 {
		t.Fatalf("Touched=%d after two fresh adds: a mark was left", a.Touched())
	}
	v = a.Build(0)
	if !reflect.DeepEqual(v.Idx, []int32{7, 9}) || !reflect.DeepEqual(v.Val, []float64{0.5, 1}) {
		t.Fatalf("next Build(0) = %v %v", v.Idx, v.Val)
	}
	if v = a.Build(0); v.Len() != 0 || cap(v.Idx) != 0 {
		t.Fatalf("empty Build = %v (cap %d)", v.Idx, cap(v.Idx))
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator(4)
	a.Add(3, 1)
	a.Reset()
	if a.Touched() != 0 || a.Get(3) != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestPropertyTruncateBoundsMassLoss(t *testing.T) {
	// Property (paper Lemma 2 machinery): after Truncate(th), every removed
	// entry was ≤ th, and survivors are untouched.
	r := rng.New(5)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := 1 + rr.Intn(50)
		dense := make([]float64, n)
		for i := range dense {
			dense[i] = rr.Float64()
		}
		v := FromDense(dense, 0)
		before := v.Clone()
		th := rr.Float64() * 0.5
		v.Truncate(th)
		// every surviving entry > th and matches original
		for i, idx := range v.Idx {
			if v.Val[i] <= th || before.Get(idx) != v.Val[i] {
				return false
			}
		}
		// every removed entry was ≤ th
		for i, idx := range before.Idx {
			if v.Get(idx) == 0 && before.Val[i] > th {
				return false
			}
		}
		return true
	}
	_ = r
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAccumulatorMatchesDense(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(40)
		a := NewAccumulator(n)
		dense := make([]float64, n)
		ops := r.Intn(200)
		for i := 0; i < ops; i++ {
			idx := int32(r.Intn(n))
			val := r.Float64()
			a.Add(idx, val)
			dense[idx] += val
		}
		v := a.Build(0)
		for i := 0; i < n; i++ {
			if math.Abs(v.Get(int32(i))-dense[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.3, 0.9, 0.05, 0.7}
	got := TopK(scores, 3, -1)
	want := []Entry{{1, 0.9}, {3, 0.9}, {5, 0.7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v", got)
	}
}

func TestTopKExclude(t *testing.T) {
	scores := []float64{1.0, 0.9, 0.3}
	got := TopK(scores, 2, 0)
	want := []Entry{{1, 0.9}, {2, 0.3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK exclude = %v", got)
	}
}

func TestTopKSmallInput(t *testing.T) {
	if got := TopK([]float64{0.5}, 5, -1); len(got) != 1 {
		t.Fatalf("k larger than input: %v", got)
	}
	if got := TopK(nil, 3, -1); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
	if got := TopK([]float64{1, 2}, 0, -1); got != nil {
		t.Fatalf("k=0: %v", got)
	}
}

func TestTopKSparseAgreesWithDense(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(100)
		dense := make([]float64, n)
		for i := range dense {
			if r.Float64() < 0.5 {
				dense[i] = r.Float64()
			}
		}
		v := FromDense(dense, 0)
		k := 1 + r.Intn(10)
		a := TopK(dense, k, -1)
		b := TopKSparse(&v, k, -1)
		// dense zeros can pad TopK when sparse has fewer than k entries;
		// compare only the strictly-positive prefix
		for i := range b {
			if a[i] != b[i] {
				t.Fatalf("trial %d: dense %v vs sparse %v", trial, a, b)
			}
		}
	}
}

func TestPropertyTopKIsSorted(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(80)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = r.Float64()
		}
		k := 1 + r.Intn(20)
		got := TopK(scores, k, -1)
		if len(got) != min(k, n) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Val != got[j].Val {
				return got[i].Val > got[j].Val
			}
			return got[i].Idx < got[j].Idx
		}) {
			return false
		}
		// k-th value must dominate all excluded values
		minVal := got[len(got)-1].Val
		inTop := make(map[int32]bool, len(got))
		for _, e := range got {
			inTop[e.Idx] = true
		}
		for i, v := range scores {
			if !inTop[int32(i)] && v > minVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccumulatorBuild(b *testing.B) {
	r := rng.New(1)
	a := NewAccumulator(100000)
	idxs := make([]int32, 10000)
	for i := range idxs {
		idxs[i] = int32(r.Intn(100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range idxs {
			a.Add(idx, 0.1)
		}
		a.Build(0)
	}
}

func BenchmarkTopK500(b *testing.B) {
	r := rng.New(2)
	scores := make([]float64, 200000)
	for i := range scores {
		scores[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(scores, 500, -1)
	}
}
