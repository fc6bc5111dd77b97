package distance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

// deltaFixture extends batchFixture's pair cohort with merges the delta
// path must handle beyond plain polynomial renames: a group-coordinate
// merge, a mixed polynomial+group merge, and a 3-ary merge. It returns
// the cohort both as member sets (for DistanceDelta) and as materialized
// BatchCandidates (for the reference paths), in the same order.
func deltaFixture(n int) (*provenance.Agg, []provenance.Annotation, provenance.Groups, [][]provenance.Annotation, []BatchCandidate) {
	p0, anns, cands := batchFixture(n)
	base := provenance.GroupsOf(anns, provenance.NewMapping())
	var sets [][]provenance.Annotation
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sets = append(sets, []provenance.Annotation{anns[i], anns[j]})
		}
	}
	extras := [][]provenance.Annotation{
		{"G1", "G2"},
		{anns[0], "G1"},
		{anns[1], anns[3], anns[5]},
	}
	for _, ms := range extras {
		h := provenance.MergeMapping("Z", ms...)
		g := make(provenance.Groups, len(base)+1)
		for name, members := range base {
			g[name] = members
		}
		var merged []provenance.Annotation
		for _, m := range ms {
			merged = append(merged, base.Members(m)...)
			delete(g, m)
		}
		g["Z"] = merged
		sets = append(sets, ms)
		cands = append(cands, BatchCandidate{Expr: p0.Apply(h), Cumulative: h, Groups: g})
	}
	return p0, anns, base, sets, cands
}

// oracleDistances scores every materialized candidate with
// ReferenceDistance over vals on a fresh estimator built by newEst.
func oracleDistances(newEst func() *Estimator, p0 provenance.Expression, cands []BatchCandidate, vals []provenance.Valuation) []float64 {
	ref := newEst()
	out := make([]float64, len(cands))
	for i, c := range cands {
		out[i] = ref.ReferenceDistance(p0, c.Expr, c.Cumulative, c.Groups, vals)
	}
	return out
}

// sampleVals replays the n draws a sampling estimator seeded with seed
// makes on its first scoring call.
func sampleVals(class valuation.Class, seed int64, n int) []provenance.Valuation {
	r := rand.New(rand.NewSource(seed))
	vals := make([]provenance.Valuation, n)
	for i := range vals {
		vals[i] = class.Sample(r)
	}
	return vals
}

// sameBits fails the test at the first candidate whose distance differs
// from the oracle's in any bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distances, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s candidate %d: %v != oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestDistanceDeltaMatchesDistanceAndBatch pins the delta engine's
// contract: probe-without-materialize scoring, Distance and the
// DistanceBatch sweep all equal the ReferenceDistance oracle bit for
// bit, and the incremental candidate sizes equal Apply(...).Size().
func TestDistanceDeltaMatchesDistanceAndBatch(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	class := valuation.NewCancelSingleAnnotation(anns)
	for _, maxErr := range []float64{0, 25} {
		newEst := func() *Estimator {
			e := estimator(class, Euclidean())
			e.MaxError = maxErr
			return e
		}
		want := oracleDistances(newEst, p0, cands, class.Valuations())
		got, sizes, ok := newEst().DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatalf("maxErr=%g: DistanceDelta fell back", maxErr)
		}
		sameBits(t, "delta", got, want)
		sameBits(t, "batch", newEst().DistanceBatch(p0, cands), want)
		e := newEst()
		for i, c := range cands {
			if d := e.Distance(p0, c.Expr, c.Cumulative, c.Groups); d != want[i] {
				t.Fatalf("maxErr=%g candidate %d (%v): distance %v != oracle %v", maxErr, i, sets[i], d, want[i])
			}
			if want := c.Expr.Size(); sizes[i] != want {
				t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sets[i], sizes[i], want)
			}
		}
	}
}

// TestDistanceDeltaMidRunMatchesBatch checks the same equivalence on a
// mid-run step (non-identity cumulative mapping, multi-member base
// groups) — the regime the delta engine is built for.
func TestDistanceDeltaMidRunMatchesBatch(t *testing.T) {
	sc := benchStep(t)
	class := valuation.NewCancelSingleAnnotation(sc.anns)
	newEst := func() *Estimator { return estimator(class, Euclidean()) }
	want := oracleDistances(newEst, sc.p0, sc.cands, class.Valuations())
	got, sizes, ok := newEst().DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back on a mid-run step")
	}
	sameBits(t, "delta", got, want)
	sameBits(t, "batch", newEst().DistanceBatch(sc.p0, sc.cands), want)
	for i, c := range sc.cands {
		if want := c.Expr.Size(); sizes[i] != want {
			t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sc.sets[i], sizes[i], want)
		}
	}
}

// TestDistanceDeltaParallelBitIdentical: the delta sweep partitions
// valuation blocks across workers while each candidate's sum
// accumulates in valuation order, so every Parallelism equals the
// oracle bit for bit.
func TestDistanceDeltaParallelBitIdentical(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	class := valuation.NewCancelSingleAnnotation(anns)
	want := oracleDistances(func() *Estimator { return estimator(class, Euclidean()) }, p0, cands, class.Valuations())
	for _, workers := range []int{1, 2, 4, 16} {
		par := estimator(class, Euclidean())
		par.Parallelism = workers
		got, _, ok := par.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatalf("parallelism %d: DistanceDelta fell back", workers)
		}
		sameBits(t, fmt.Sprintf("parallelism %d", workers), got, want)
	}
}

// TestDistanceDeltaSharedSamples: sampling mode draws one shared sample
// set up front, so the distances equal the oracle over the same draws
// replayed from the seed, at any Parallelism, on both cohort paths.
func TestDistanceDeltaSharedSamples(t *testing.T) {
	p0, anns, base, sets, cands := deltaFixture(8)
	class := valuation.NewCancelSingleAnnotation(anns)
	want := oracleDistances(func() *Estimator { return estimator(class, Euclidean()) }, p0, cands, sampleVals(class, 7, 5))
	sampler := func(workers int) *Estimator {
		e := estimator(class, Euclidean())
		e.Samples = 5
		e.Rand = rand.New(rand.NewSource(7))
		e.Parallelism = workers
		return e
	}
	for _, workers := range []int{1, 4} {
		got, _, ok := sampler(workers).DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
		if !ok {
			t.Fatal("DistanceDelta fell back")
		}
		sameBits(t, fmt.Sprintf("workers=%d delta", workers), got, want)
		sameBits(t, fmt.Sprintf("workers=%d batch", workers), sampler(workers).DistanceBatch(p0, cands), want)
	}
}

// TestDistanceDeltaNonBlockableMatchesOracle covers the scalar sweep:
// a negative constant makes the plan's arena non-blockable, so
// DistanceDelta takes the per-valuation path, which must still equal
// the oracle bit for bit, enumerating and sampling, at any Parallelism.
func TestDistanceDeltaNonBlockableMatchesOracle(t *testing.T) {
	guard := func(x, y provenance.Annotation, c int) provenance.Expr {
		return provenance.Cmp{
			Inner: provenance.Sum{Terms: []provenance.Expr{provenance.V(x), provenance.V(y), provenance.Const{N: c}}},
			Value: 2, Op: provenance.OpGE, Bound: 1,
		}
	}
	// Cancelling a or c changes both group coordinates of the summary
	// below (a and c merge into S), so a g1+g2 merge must re-evaluate
	// even where no truth changes.
	p0 := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: guard("a", "b", -1), Value: 3, Count: 1, Group: "g1"},
		provenance.Tensor{Prov: provenance.Prod{Factors: []provenance.Expr{provenance.V("c"), provenance.V("d")}}, Value: 2, Count: 1, Group: "g1"},
		provenance.Tensor{Prov: provenance.V("d"), Value: 4, Count: 2, Group: "g2"},
		provenance.Tensor{Prov: guard("c", "e", -1), Value: 1, Count: 1, Group: "g2"},
		provenance.Tensor{Prov: provenance.V("a"), Value: 5, Count: 1, Group: "g2"},
	)
	if ar := provenance.CompileArena(p0); ar == nil || ar.Blockable() {
		t.Fatal("fixture must compile to a non-blockable arena")
	}
	anns := p0.Annotations()
	cum := provenance.MergeMapping("S", "a", "c")
	cur := p0.Apply(cum)
	base := provenance.GroupsOf(anns, cum)
	curAnns := cur.Annotations()
	var sets [][]provenance.Annotation
	var cands []BatchCandidate
	for i := 0; i < len(curAnns); i++ {
		for j := i + 1; j < len(curAnns); j++ {
			ms := []provenance.Annotation{curAnns[i], curAnns[j]}
			h := provenance.MergeMapping("Z", ms...)
			next := cum.Compose(h)
			sets = append(sets, ms)
			cands = append(cands, BatchCandidate{Expr: cur.Apply(h), Cumulative: next, Groups: provenance.GroupsOf(anns, next)})
		}
	}
	class := valuation.NewCancelSingleAnnotation(anns)
	newEst := func() *Estimator { return estimator(class, Euclidean()) }
	for _, samples := range []int{0, 6} {
		vals := class.Valuations()
		if samples > 0 {
			vals = sampleVals(class, 5, samples)
		}
		want := oracleDistances(newEst, p0, cands, vals)
		for _, workers := range []int{1, 4} {
			e := newEst()
			e.Parallelism = workers
			if samples > 0 {
				e.Samples = samples
				e.Rand = rand.New(rand.NewSource(5))
			}
			got, sizes, ok := e.DistanceDelta(p0, cur, cum, base, sets, "Z")
			if !ok {
				t.Fatal("DistanceDelta fell back on a non-blockable aggregation")
			}
			sameBits(t, fmt.Sprintf("samples=%d workers=%d", samples, workers), got, want)
			for i, c := range cands {
				if sizes[i] != c.Expr.Size() {
					t.Fatalf("candidate %d (%v): incremental size %d != Apply size %d", i, sets[i], sizes[i], c.Expr.Size())
				}
			}
		}
	}
}

func TestDistanceDeltaStats(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	_, _, ok := e.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back")
	}
	st := e.Stats()
	if st.DeltaCalls != 1 {
		t.Fatalf("DeltaCalls = %d, want 1", st.DeltaCalls)
	}
	if st.DeltaCandidates != uint64(len(sets)) {
		t.Fatalf("DeltaCandidates = %d, want %d", st.DeltaCandidates, len(sets))
	}
	vals := uint64(len(e.Class.Valuations()))
	if got, want := st.DeltaSkips+st.DeltaFullEvals, uint64(len(sets))*vals; got != want {
		t.Fatalf("DeltaSkips+DeltaFullEvals = %d, want %d (every candidate × valuation pair)", got, want)
	}
	if st.DeltaSkips == 0 {
		t.Fatal("expected truth-delta short-circuits on unaffected valuations")
	}
	if st.DeltaFullEvals == 0 {
		t.Fatal("expected full evaluations on truth-changing valuations")
	}
	if st.Evaluations != st.DeltaFullEvals {
		t.Fatalf("Evaluations = %d, want %d (only full evals compute VAL-FUNC summands)", st.Evaluations, st.DeltaFullEvals)
	}
	if st.DeltaSubtreeEvals == 0 {
		t.Fatal("expected subtree re-evaluations to be counted")
	}
	if st.DistanceCalls != 0 || st.BatchCalls != 0 {
		t.Fatalf("DistanceCalls = %d, BatchCalls = %d, want 0 (delta only)", st.DistanceCalls, st.BatchCalls)
	}
}

// sliceExpr is an Expression whose dynamic type is non-comparable (slice
// field). Identity-keyed caches must not compare it — interface
// comparison of two sliceExpr values panics at runtime.
type sliceExpr struct {
	weights []float64
	anns    []provenance.Annotation
}

func (s sliceExpr) Size() int                                      { return 1 }
func (s sliceExpr) Annotations() []provenance.Annotation           { return s.anns }
func (s sliceExpr) Apply(provenance.Mapping) provenance.Expression { return s }
func (s sliceExpr) Eval(v provenance.Valuation) provenance.Result {
	var total float64
	for i, a := range s.anns {
		if v.Truth(a) {
			total += s.weights[i]
		}
	}
	return provenance.Vector{"": total}
}
func (s sliceExpr) AlignResult(r provenance.Result, _ provenance.Mapping) provenance.Result {
	return r
}
func (s sliceExpr) String() string { return "sliceExpr" }

// TestDistanceDeltaFallback: expressions that cannot be planned, and
// probes that cannot be compiled soundly, report ok=false without
// touching the delta counters, so callers fall back to DistanceBatch.
func TestDistanceDeltaFallback(t *testing.T) {
	p0, anns, base, sets, _ := deltaFixture(8)
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	opaque := sliceExpr{weights: []float64{1}, anns: anns[:1]}
	if _, _, ok := e.DistanceDelta(opaque, opaque, provenance.NewMapping(), base, sets, "Z"); ok {
		t.Fatal("DistanceDelta must fall back on a non-aggregated expression")
	}
	// newAnn already occurs in the expression: rewritten tensor keys could
	// collide with unaffected ones, so the probe refuses to compile.
	if _, _, ok := e.DistanceDelta(p0, p0, provenance.NewMapping(), base, sets, anns[0]); ok {
		t.Fatal("DistanceDelta must fall back when newAnn occurs in the expression")
	}
	if st := e.Stats(); st.DeltaCalls != 0 || st.DeltaCandidates != 0 {
		t.Fatalf("fallbacks counted as delta calls: %+v", st)
	}
}

// TestEvalOriginalNonComparableExpression is a regression test: the
// original-expression cache used to compare p0 against its previous key
// with !=, which panics ("comparing uncomparable type") on the second
// valuation for any Expression with a non-comparable dynamic type. Such
// expressions are now evaluated uncached.
func TestEvalOriginalNonComparableExpression(t *testing.T) {
	anns := []provenance.Annotation{"a1", "a2"}
	p0 := sliceExpr{weights: []float64{1, 2}, anns: anns}
	pc := sliceExpr{weights: []float64{3}, anns: anns[:1]}
	e := estimator(valuation.NewCancelSingleAnnotation(anns), Euclidean())
	groups := provenance.GroupsOf(anns, provenance.NewMapping())
	first := e.Distance(p0, pc, provenance.NewMapping(), groups)
	second := e.Distance(p0, pc, provenance.NewMapping(), groups)
	if first != second {
		t.Fatalf("uncached evaluation not deterministic: %v != %v", first, second)
	}
	st := e.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("CacheHits = %d, want 0 (non-comparable expressions bypass the cache)", st.CacheHits)
	}
	if st.CacheMisses == 0 {
		t.Fatal("uncached evaluations must still count as cache misses")
	}
}

func BenchmarkSummarizeStepScoringDelta(b *testing.B) {
	sc := benchStep(b)
	e := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z"); !ok {
			b.Fatal("DistanceDelta fell back")
		}
	}
}

// countingValuation counts Truth calls through to its inner valuation.
type countingValuation struct {
	inner provenance.Valuation
	calls *int
}

func (c countingValuation) Truth(a provenance.Annotation) bool {
	*c.calls++
	return c.inner.Truth(a)
}

func (c countingValuation) Name() string { return c.inner.Name() }

// TestDeltaTruthsResetPullsEachRawTruthOnce pins the shared-interner
// contract of deltaTruths: per reset, the valuation is queried exactly
// once per interned base annotation — group members and the plan's raw
// annotations share one truth table, so no raw truth is pulled through
// the valuation twice, on the first reset or any later one.
func TestDeltaTruthsResetPullsEachRawTruthOnce(t *testing.T) {
	p0 := provenance.NewAgg(provenance.AggSum,
		provenance.Tensor{Prov: provenance.V("a"), Value: 1, Count: 1, Group: "u"},
		provenance.Tensor{Prov: provenance.V("b"), Value: 2, Count: 1, Group: "u"},
		provenance.Tensor{Prov: provenance.V("c"), Value: 3, Count: 1, Group: "u"},
	)
	cum := provenance.MergeMapping("S", "a", "c")
	cur, ok := p0.Apply(cum).(*provenance.Agg)
	if !ok {
		t.Fatal("Apply did not return an aggregation")
	}
	base := provenance.GroupsOf(p0.Annotations(), cum)
	plan := provenance.NewPlan(cur)
	shared := newDeltaTruths(plan, base, provenance.CombineOr)
	if want := 4; shared.baseIn.Len() != want {
		t.Fatalf("interned %d base annotations, want %d (members a,c plus raw b and group key u)", shared.baseIn.Len(), want)
	}
	e := &Estimator{}
	d := e.forkTruths(shared)
	for round := 1; round <= 2; round++ {
		calls := 0
		d.reset(countingValuation{inner: provenance.CancelAnnotation("a"), calls: &calls})
		if want := shared.baseIn.Len(); calls != want {
			t.Fatalf("reset round %d made %d Truth calls, want %d (one per interned base annotation)", round, calls, want)
		}
	}
	// And the dense extension is still correct: S = a ∨ c with a
	// cancelled is true, raw b is true.
	for _, ann := range []provenance.Annotation{"S", "b"} {
		id, ok := plan.AnnID(ann)
		if !ok {
			t.Fatalf("annotation %s not interned in the plan", ann)
		}
		if got := d.truthOf(ann, id); got != 1 {
			t.Fatalf("extended truth of %s = %d, want 1", ann, got)
		}
	}
}

// TestCommitMergePatchesPlan pins the arena-reuse contract of the merge
// commit: after CommitMerge the cached plan is patched in place
// (MergePatches counts it, nothing recompiles), and scoring the next
// step on the patched plan is bit-identical to a fresh estimator that
// compiles the committed expression from scratch.
func TestCommitMergePatchesPlan(t *testing.T) {
	sc := benchStep(t)
	members := sc.sets[0]
	newAnn := provenance.Annotation("M1")
	step := provenance.MergeMapping(newAnn, members...)
	next := sc.cur.Apply(step)
	nextCum := sc.cum.Compose(step)
	nextBase := provenance.GroupsOf(sc.anns, nextCum)
	summaries := next.Annotations()
	var nextSets [][]provenance.Annotation
	for i := 0; i < len(summaries); i++ {
		for j := i + 1; j < len(summaries); j++ {
			nextSets = append(nextSets, []provenance.Annotation{summaries[i], summaries[j]})
		}
	}

	patched := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	if _, _, ok := patched.DistanceDelta(sc.p0, sc.cur, sc.cum, sc.base, sc.sets, "Z"); !ok {
		t.Fatal("DistanceDelta fell back on the first step")
	}
	patched.CommitMerge(sc.cur, next, members, newAnn)
	got, _, ok := patched.DistanceDelta(sc.p0, next, nextCum, nextBase, nextSets, "Z")
	if !ok {
		t.Fatal("DistanceDelta fell back on the committed step")
	}
	if st := patched.Stats(); st.MergePatches != 1 || st.MergeRecompiles != 0 {
		t.Fatalf("patched estimator: patches=%d recompiles=%d, want 1/0", st.MergePatches, st.MergeRecompiles)
	}

	fresh := estimator(valuation.NewCancelSingleAnnotation(sc.anns), Euclidean())
	want, _, ok := fresh.DistanceDelta(sc.p0, next, nextCum, nextBase, nextSets, "Z")
	if !ok {
		t.Fatal("fresh DistanceDelta fell back")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d (%v): patched-plan %v != fresh-plan %v", i, nextSets[i], got[i], want[i])
		}
	}
}
