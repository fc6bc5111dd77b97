package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
)

func TestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		want, p float64
	}{
		{n: 100, want: 90, p: 90},  // exactly ten samples beyond p90
		{n: 1000, want: 90, p: 90}, // plenty
		{n: 50, want: 90, p: 80},   // only p80 has ten beyond it
		{n: 15, want: 90, p: 50},   // never below the median
		{n: 40, want: 50, p: 50},
	} {
		got := supportedPercentile(seq(tc.n), tc.want)
		if math.Abs(got.P-tc.p) > 1e-9 || got.N != tc.n {
			t.Errorf("n=%d want p%g: got p%g (n=%d), expected p%g", tc.n, tc.want, got.P, got.N, tc.p)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if got.P > 50 && beyond < minTail {
			t.Errorf("n=%d: p%g has %d samples beyond it, want >= %d", tc.n, got.P, beyond, minTail)
		}
	}
	if got := supportedPercentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 50).Value; got != 11 {
		t.Errorf("median of 1..21 = %v, want 11", got)
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Run: "r", Name: "summarize", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Run: "r", Name: "step", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Run: "r", Name: "step", Start: at(20), End: at(50)},  // overlaps ID 2
		{ID: 4, Parent: 1, Run: "r", Name: "step", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 5, Parent: 2, Run: "r", Name: "distance", Start: at(12), End: at(18)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 − (10..50 ∪ 90..100)
		2: 14 * time.Millisecond, // grandchild 5 counts against 2 only
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 6 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	byName := selfMsByName(spans)
	if byName["summarize"] != 50 || byName["step"] != 74 || byName["distance"] != 6 {
		t.Fatalf("self ms by name = %v", byName)
	}
}

func TestScheduleFixedBySeed(t *testing.T) {
	ladder := []rung{{rate: 10, dur: 20 * time.Second}, {rate: 40, dur: 10 * time.Second}}
	a := schedule(7, ladder, 2, 3, 4)
	if b := schedule(7, ladder, 2, 3, 4); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := schedule(8, ladder, 2, 3, 4); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	perRung := make([]int, len(ladder))
	kinds := make([]int, len(opNames))
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		perRung[x.rung]++
		kinds[x.kind]++
		if x.kind == opRepeat && x.of >= 0 {
			orig := a[x.of]
			if orig.kind != opFresh || orig.stream || orig.due > x.due-repeatLag {
				t.Fatalf("repeat %d refers to %+v", i, orig)
			}
		}
	}
	for i, r := range ladder {
		want := r.rate * r.dur.Seconds()
		if got := float64(perRung[i]); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("rung %d: %v arrivals, want about %v", i, got, want)
		}
	}
	for k, share := range mix {
		want := share * float64(len(a))
		if got := float64(kinds[k]); math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("%v: %v arrivals, want about %v", opKind(k), got, want)
		}
	}
}

func TestOutputChecksRejectCorruptSummary(t *testing.T) {
	w := datasets.MovieLens(datasets.DefaultMovieLensConfig(), rand.New(rand.NewSource(3)))
	s, err := core.New(core.Config{Policy: w.Policy, Estimator: w.Estimator(datasets.CancelSingleAnnotation), WDist: 0.5, WSize: 0.5, MaxSteps: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSummary(w, sum); err != nil {
		t.Fatalf("a correct summary was rejected: %v", err)
	}

	bad := *sum
	bad.Dist = math.Nextafter(sum.Dist, 2)
	if err := checkSummary(w, &bad); err == nil || !strings.Contains(err.Error(), "distance") {
		t.Errorf("a distance off by one ulp was accepted (err %v)", err)
	}
	bad = *sum
	bad.Expr = sum.Original
	if err := checkSummary(w, &bad); err == nil {
		t.Error("a summary expression that is not Mapping(Original) was accepted")
	}

	h := traceHash(sum)
	bad = *sum
	bad.Steps = append([]core.Step(nil), sum.Steps...)
	bad.Steps[1].Score = math.Nextafter(bad.Steps[1].Score, 2)
	if traceHash(&bad) == h {
		t.Error("the merge-trace hash missed a changed score")
	}

	var a summaryBody
	a.Size = 10
	a.Steps = append(a.Steps, struct {
		A, B, New string
		Dist      float64
		Size      int
		Score     float64
	}{A: "U1", B: "U2", New: "g#1", Size: 12}, struct {
		A, B, New string
		Dist      float64
		Size      int
		Score     float64
	}{A: "U3", B: "g#1", New: "g#2", Size: 10})
	b := a
	b.Steps = append(b.Steps[:0:0], a.Steps...)
	if !sameTrace(&a, &b) {
		t.Error("identical traces compared unequal")
	}
	// A recomputation names its summary annotations afresh.
	b.Steps[0].New, b.Steps[1].B, b.Steps[1].New = "g#7", "g#7", "g#8"
	if !sameTrace(&a, &b) {
		t.Error("a recomputed trace with fresh names compared unequal")
	}
	b.Steps[1].A = "U4"
	if sameTrace(&a, &b) {
		t.Error("a repeat with a different merge was accepted")
	}
}

func TestHistQuantileFromScrapes(t *testing.T) {
	parse := func(s string) samples {
		m, err := parseMetrics(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := parse(`# TYPE h histogram
h_bucket{route="/a",le="0.01"} 1
h_bucket{route="/a",le="0.1"} 1
h_bucket{route="/a",le="+Inf"} 1
`)
	after := parse(`h_bucket{route="/a",le="0.01"} 1
h_bucket{route="/a",le="0.1"} 5 # {trace_id="abc"} 0.05 1.7e9
h_bucket{route="/a",le="+Inf"} 5
h_bucket{route="/b",le="0.01"} 9
c_total 3
`)
	// Four new observations, all in (0.01, 0.1]: the median sits halfway.
	if got := histQuantile(before, after, "h", `route="/a"`, 0.5); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("p50 = %v, want 0.055", got)
	}
	if got := delta(before, after, "c_total"); got != 3 {
		t.Errorf("counter delta = %v, want 3", got)
	}
	if got := histQuantile(before, before, "h", `route="/a"`, 0.5); got != 0 {
		t.Errorf("p50 without observations = %v, want 0", got)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		code     map[string]string
	}{{"end_to_end", b.EndToEnd, e2eUnits}, {"per_layer", b.PerLayer, layerUnits}} {
		got := map[string]string{}
		for _, m := range tc.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, tc.code) {
			t.Errorf("%s in BENCHMARK.json %v differs from the code's %v", tc.what, got, tc.code)
		}
	}
}
