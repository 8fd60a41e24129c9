// Command bench is the repository's benchmark: four workloads that run
// the system from the paper's ground-truth setting up to the fleet's
// front door, each checking every answer it gets. Run it from the
// repository root with bench/run.sh, which builds it first:
//
//	bash bench/run.sh --workload hot-router-db --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1 --out run.json        # all four workloads
//	bash bench/run.sh compare -base runs/base -change runs/change
//
// An untraced run reports the end-to-end metrics, a traced run (--trace 1)
// the per-layer ones; BENCHMARK.json at the repository root lists both
// with their units and bounds. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// workloads in the order an all-workload run executes them.
var workloads = []workload{groundtruthGQ, hotRouterDB, distinctServiceDB, overloadChurnDB}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFile is what -out writes and compare reads.
type runFile struct {
	Records []*record `json:"records"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four, in order)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "length of the timed window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans as JSON lines (default: <cache>/spans-<workload>-seed<n>.jsonl)")
	out := fs.String("out", "", "also write every run record, with all diagnostics, to this JSON file")
	cache := fs.String("cache", ".bench_build", "directory for the ground-truth cache and default span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive\n")
		return 2
	}
	run := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		run = workloads[i : i+1]
	}
	if len(run) > 1 && *spans != "" {
		fmt.Fprintf(os.Stderr, "bench: -spans names one file, so it needs -workload\n")
		return 2
	}

	var recs []*record
	for _, w := range run {
		fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
		rec, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *cache, *spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		printRecord(rec)
		recs = append(recs, rec)
	}
	if *out != "" {
		if err := writeJSON(*out, runFile{Records: recs}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}

	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, r := range recs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(recs) > 1 {
				k = r.Workload + "/" + k
			}
			sum.Metrics[k] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !sum.Correct || sum.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// printRecord prints one run's metrics by name and unit, and any check
// violations, for a human reader.
func printRecord(r *record) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer"
	}
	fmt.Printf("%s  seed=%d  window=%ds  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for i, v := range r.Violations {
		if i == 10 {
			fmt.Printf("  ... and %d more violations\n", len(r.Violations)-10)
			break
		}
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readRunFile(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Records) == 0 {
		return nil, errors.New(path + ": no run records")
	}
	return rf.Records, nil
}
