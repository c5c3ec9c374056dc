package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want the sample", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of no samples = %v, want 0", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// returns, since that is what the driver judges spreads by. The wanted
// values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 9}, 2, 9},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45},
	}
	want := map[int]int64{1: 100 - (40 + 30), 2: 20, 3: 30 - 20, 4: 50, 5: 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := summarize(spans)
	if len(rows) != 5 || rows[0].name != "rep" || rows[0].selfS != 30e-6 || rows[0].totalS != 100e-6 {
		t.Errorf("summarize = %+v", rows)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The names the program prints are the names BENCHMARK.json declares,
// and both stay inside the driver's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) == 0 || len([]rune(w.why)) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, has %d", w.name, len([]rune(w.why)))
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
	}
	haveSetup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !haveSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", decl.RunSeconds, decl.Paths)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command %v, want %v", decl.Command, want)
	}
}

// streamBytes is the stream as the server receives it.
func streamBytes(stream []mixRequest) string {
	var b strings.Builder
	for _, req := range stream {
		b.WriteString(req.class + " ")
		b.Write(req.body)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	size := mixSizeOf(full)
	a, b, c := genStream(7, size), genStream(7, size), genStream(8, size)
	if streamBytes(a) != streamBytes(b) {
		t.Error("one seed gave two different request streams")
	}
	if streamBytes(a) == streamBytes(c) {
		t.Error("two seeds gave the same request stream")
	}
	if len(a) != size.requests {
		t.Fatalf("stream has %d requests, want %d", len(a), size.requests)
	}
	share := map[string]float64{}
	for i, req := range a {
		share[req.class] += 1 / float64(len(a))
		if req.class == classFollower && (a[i-1].class != classCold || string(a[i-1].body) != string(req.body)) {
			t.Fatalf("request %d: a follower does not repeat the cold request just before it", i)
		}
	}
	for class, want := range map[string]float64{classHit: 0.92, classCold: 0.05, classFollower: 0.03} {
		if math.Abs(share[class]-want) > 1e-9 {
			t.Errorf("class %s is %v of the stream, want exactly %v for every seed", class, share[class], want)
		}
	}
}

// Every workload and every reference run goes end to end at the smoke
// scale, traced, in this process: no wrong verdict, every end-to-end
// metric positive, and no layer metric the tables do not declare.
func TestSmokeEveryWorkload(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for _, w := range append(append([]*workload{}, workloads...), references...) {
		res := runRep(w, smoke, 2, true, t.TempDir())
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range endToEnd {
			if !(res.E2E[m.Name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, res.E2E[m.Name])
			}
		}
		for name := range res.Layer {
			if !declared[name] {
				t.Errorf("%s: layer metric %q is not in the perLayer table", w.name, name)
			}
		}
		if len(res.Spans) < 2 {
			t.Errorf("%s: traced repetition recorded %d spans", w.name, len(res.Spans))
		}
	}
}
