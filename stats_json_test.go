package exactsim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// statsTagGolden pins the wire name of every ServiceStats gauge. The
// struct is consumed by dashboards and by the cluster router's FleetStats
// aggregation (which embeds it), so renaming or dropping a tag is a
// protocol break — this test makes that a deliberate act.
var statsTagGolden = map[string]string{
	"Queries":            "queries",
	"CacheHits":          "cache_hits",
	"Errors":             "errors",
	"CachedResults":      "cached_results",
	"QueueDepth":         "queue_depth",
	"InFlight":           "in_flight",
	"CPUsLent":           "cpus_lent",
	"Queriers":           "queriers",
	"GraphEpoch":         "graph_epoch",
	"DiagIndexEnabled":   "diag_index_enabled",
	"DiagHits":           "diag_hits",
	"DiagMisses":         "diag_misses",
	"DiagHitRate":        "diag_hit_rate",
	"DiagEvictions":      "diag_evictions",
	"DiagChunks":         "diag_chunks",
	"DiagExplores":       "diag_explores",
	"DiagResidentBytes":  "diag_resident_bytes",
	"DiagBudgetBytes":    "diag_budget_bytes",
	"ShedQueries":        "shed_queries",
	"CoDelDrops":         "codel_drops",
	"DeadlineRejected":   "deadline_rejected",
	"DegradedQueries":    "degraded_queries",
	"BrownoutActive":     "brownout_active",
	"QueueSojournMicros": "queue_sojourn_us",
	"AutoPlanned":        "auto_planned",
	"PartialResults":     "partial_results",
	"PanicsRecovered":    "panics_recovered",
	"LastPanic":          "last_panic",
}

func TestServiceStatsTagsComplete(t *testing.T) {
	st := reflect.TypeOf(ServiceStats{})
	if st.NumField() != len(statsTagGolden) {
		t.Fatalf("ServiceStats has %d fields, golden map has %d — update statsTagGolden (and FleetStats aggregation) for the new gauge",
			st.NumField(), len(statsTagGolden))
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		want, ok := statsTagGolden[f.Name]
		if !ok {
			t.Errorf("field %s not in golden map", f.Name)
			continue
		}
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag != want {
			t.Errorf("field %s: json tag %q, golden %q", f.Name, tag, want)
		}
	}
}

// TestServiceStatsJSONRoundTrip populates every gauge with a distinct
// nonzero value via reflection and proves the JSON round trip loses
// nothing: any future field either survives the trip or fails here.
func TestServiceStatsJSONRoundTrip(t *testing.T) {
	var in ServiceStats
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Uint64:
			f.SetUint(uint64(2000 + i))
		case reflect.Float64:
			f.SetFloat(0.5 + float64(i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i))
		default:
			t.Fatalf("ServiceStats.%s has kind %s — teach this test to populate it",
				v.Type().Field(i).Name, f.Kind())
		}
	}

	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ServiceStats
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("round trip lost data:\n in: %+v\nout: %+v", in, out)
	}

	// The wire object carries exactly the golden names — no unexported
	// leakage, no accidental omitempty dropping a zero gauge.
	var wire map[string]any
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire) != len(statsTagGolden) {
		t.Fatalf("wire object has %d keys, want %d: %v", len(wire), len(statsTagGolden), wire)
	}
	for _, name := range statsTagGolden {
		if _, ok := wire[name]; !ok {
			t.Errorf("wire object missing %q", name)
		}
	}
}

// TestServiceStatsLiveValuesSurviveWire drives a real service and checks
// the gauges a fleet router depends on (epoch, hit rate, residency)
// survive serialization from live values, not just synthetic ones.
func TestServiceStatsLiveValuesSurviveWire(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 21)
	svc, err := NewService(g, ServiceOptions{
		Workers:        2,
		QuerierOptions: []QuerierOption{WithEpsilon(0.1), WithSeed(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := t.Context()
	for src := 0; src < 8; src++ {
		if resp := svc.Query(ctx, Request{Source: NodeID(src)}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		// Repeat → cache hit.
		if resp := svc.Query(ctx, Request{Source: NodeID(src)}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	in := svc.Stats()
	if in.Queries != 16 || in.CacheHits != 8 || in.GraphEpoch != 1 {
		t.Fatalf("unexpected live stats: %+v", in)
	}
	if !in.DiagIndexEnabled || in.DiagResidentBytes == 0 {
		t.Fatalf("diag index gauges empty: %+v", in)
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ServiceStats
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("live stats round trip lost data:\n in: %+v\nout: %+v", in, out)
	}
}
