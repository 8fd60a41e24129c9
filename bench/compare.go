package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// compareMain judges a change against its parent from two directories of
// run files (-out of untraced runs): for every end-to-end metric and
// workload, and for the accuracy metrics on groundtruth-gq, it reports
// each side's median and quartiles and a verdict. It exits 1 when any
// pairing is worse than its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "directory of the parent commit's run files")
	change := fs.String("change", "", "directory of the change's run files")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "compare: need -base and -change")
		return 2
	}
	metrics, err := loadBounds(*spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	baseRecs, err := loadRuns(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	changeRecs, err := loadRuns(*change)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	worse := false
	row := func(m boundSpec, w string, b, c []float64) {
		if len(b) == 0 || len(c) == 0 {
			return
		}
		v := judge(m, b, c)
		worse = worse || v.verdict == "worse"
		delta := fmt.Sprintf("%+.1f%%", 100*v.delta)
		if m.Absolute {
			delta = fmt.Sprintf("%+.4g", v.delta)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s\n",
			m.Name, w, v.base[1], v.base[0], v.base[2], v.change[1], v.change[0], v.change[2],
			delta, v.wins, v.pairs, v.verdict)
	}
	for _, m := range metrics {
		for _, w := range workloadNames() {
			row(m, w, values(baseRecs, w, m.Name, false), values(changeRecs, w, m.Name, false))
		}
	}
	for _, a := range accuracy {
		row(a.boundSpec, a.workload, values(baseRecs, a.workload, a.Name, true), values(changeRecs, a.workload, a.Name, true))
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Absolute bounds the difference of the medians rather than their
	// ratio, for a ratio metric that sits near 1.
	Absolute bool `json:"-"`
}

// accuracy bounds the paper's accuracy metrics on the one workload that
// measures them. BENCHMARK.json has no per-workload bounds, and every
// end-to-end metric there is reported by every workload, so these are
// per-layer metrics in it, judged here from the diagnostics every
// untraced record keeps. The hard check (max error ≤ ε on every answer)
// fails a run outright; these catch accuracy traded away within ε.
var accuracy = []struct {
	boundSpec
	workload string
}{
	{boundSpec{Name: "core.max_err", Unit: "score", Better: "lower", Bound: 0.10}, groundtruthGQ.name},
	{boundSpec{Name: "core.precision_at_50", Unit: "ratio", Better: "higher", Bound: 0.01, Absolute: true}, groundtruthGQ.name},
}

func loadBounds(path string) ([]boundSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRuns reads every untraced record of every *.json run file in dir,
// in file-name order: the order the runs were made, which pairs them.
func loadRuns(dir string) ([]*record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	slices.Sort(files)
	var out []*record
	for _, f := range files {
		recs, err := readRunFile(f)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return out, nil
}

// values reads one metric of one workload from every record: an
// end-to-end metric, or with layer set a per-layer diagnostic.
func values(recs []*record, workload, metric string, layer bool) []float64 {
	var out []float64
	for _, r := range recs {
		from := r.Metrics
		if layer {
			from = r.Layer
		}
		if m, ok := from[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdictRow is the judgement of one (metric, workload) pairing.
type verdictRow struct {
	base, change [3]float64 // q1, median, q3
	// delta is the change's median relative to the base's, signed so
	// that positive is worse.
	delta       float64
	wins, pairs int
	verdict     string
}

// judge applies the regression and gain rules to one pairing:
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - unresolved: either side's spread (quartile distance over median;
//     the quartile distance itself for an absolute bound) is wider than
//     the bound, unless every change run beats every base run;
//   - better: the change wins at least 9 of every 10 runs paired in
//     order (ties count for neither) and the medians differ by more than
//     the base's quartile distance;
//   - same otherwise.
func judge(m boundSpec, base, change []float64) verdictRow {
	higher := m.Better == "higher"
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	var v verdictRow
	v.base[0], v.base[1], v.base[2] = quartiles(base)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	mb, mc := v.base[1], v.change[1]
	scale := relative
	if m.Absolute {
		scale = func(d, _ float64) float64 { return d }
	}
	v.delta = scale(mc-mb, mb)
	if higher {
		v.delta = -v.delta
	}
	spread := func(q [3]float64) float64 { return scale(q[2]-q[0], q[1]) }
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	v.pairs = min(len(base), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], base[i]) {
			v.wins++
		}
	}
	switch {
	case v.delta > m.Bound:
		v.verdict = "worse"
	case spread(v.base) > m.Bound || spread(v.change) > m.Bound:
		v.verdict = "unresolved"
		if allBetter {
			v.verdict = "better"
		}
	case 10*v.wins >= 9*v.pairs && better(mc, mb) && math.Abs(mc-mb) > v.base[2]-v.base[0]:
		v.verdict = "better"
	default:
		v.verdict = "same"
	}
	return v
}

// relative is d/base, with a zero base read as no change when d is zero
// too and as an unbounded change otherwise.
func relative(d, base float64) float64 {
	switch {
	case base != 0:
		return d / math.Abs(base)
	case d == 0:
		return 0
	}
	return math.Inf(int(math.Copysign(1, d)))
}
