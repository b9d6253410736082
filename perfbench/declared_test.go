package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []declared, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

func TestSummarizeRejectsMissingAndMisunitedMetrics(t *testing.T) {
	ok := &report{workload: "w", attempted: 1}
	ok.add("a_ms", 1.5, "ms")
	if _, err := summarize([]*report{ok}, []declared{{"a_ms", "ms"}}, false); err != nil {
		t.Fatalf("matching metric: %v", err)
	}
	if _, err := summarize([]*report{ok}, []declared{{"a_ms", "s"}}, false); err == nil {
		t.Error("a unit other than the declared one was accepted")
	}
	if _, err := summarize([]*report{ok}, []declared{{"b_ms", "ms"}}, false); err == nil {
		t.Error("a missing metric was accepted")
	}
	aliased := &report{workload: "w", attempted: 1, alias: map[string]string{"a_ms": "x.a_ms"}}
	aliased.add("x.a_ms", 2, "ms")
	s, err := summarize([]*report{aliased}, []declared{{"a_ms", "ms"}}, false)
	if err != nil || s.Metrics["a_ms"].Value != 2 {
		t.Errorf("alias: %v %v", s.Metrics, err)
	}
	failed := &report{workload: "w", attempted: 2, failed: 1}
	failed.add("a_ms", 1, "ms")
	if s, _ := summarize([]*report{failed}, []declared{{"a_ms", "ms"}}, false); s.Correct {
		t.Error("a run with a failed output reads as correct")
	}
}
