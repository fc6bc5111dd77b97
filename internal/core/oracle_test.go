// External test package: the engine-vs-oracle matrix runs seeded
// workloads from internal/datasets, which depends on core via the
// baselines, so it cannot live in package core.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/provenance"
)

func movieLens(t *testing.T) *datasets.Workload {
	t.Helper()
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users = 14
	cfg.Movies = 6
	return datasets.MovieLens(cfg, rand.New(rand.NewSource(9)))
}

// ddpWorkload is a small DDP instance: ddp.Expr is not an aggregation,
// so the delta engine cannot plan it and every cohort scores through
// Estimator.DistanceBatch.
func ddpWorkload(t *testing.T) *datasets.Workload {
	t.Helper()
	return datasets.DDP(datasets.DefaultDDPConfig(), rand.New(rand.NewSource(9)))
}

// negConstWorkload is a SUM aggregation whose guards carry negative
// constants: its arena is not blockable, so the delta engine scores it
// with the per-valuation scalar sweep.
func negConstWorkload(t *testing.T) *datasets.Workload {
	t.Helper()
	u := provenance.NewUniverse()
	const n = 8
	users := make([]provenance.Annotation, n)
	for i := range users {
		users[i] = provenance.Annotation(fmt.Sprintf("u%d", i))
		u.Add(users[i], "users", provenance.Attrs{"gender": []string{"F", "M"}[i%2]})
	}
	var tensors []provenance.Tensor
	for i, a := range users {
		both := provenance.Cmp{
			Inner: provenance.Sum{Terms: []provenance.Expr{provenance.V(a), provenance.V(users[(i+2)%n]), provenance.Const{N: -1}}},
			Value: 2, Op: provenance.OpGE, Bound: 1,
		}
		group := provenance.Annotation(fmt.Sprintf("m%d", i%3))
		tensors = append(tensors,
			provenance.Tensor{Prov: both, Value: float64(i%4 + 1), Count: 1, Group: group},
			provenance.Tensor{Prov: provenance.V(a), Value: float64(i%3 + 2), Count: 1, Group: group},
		)
	}
	p0 := provenance.NewAgg(provenance.AggSum, tensors...)
	return &datasets.Workload{
		Name:     "negconst",
		Prov:     p0,
		Universe: u,
		Policy:   constraints.NewPolicy(u, constraints.SameTable(), constraints.SharedAttr("gender")),
		VF:       distance.Euclidean(),
		MaxError: 40,
	}
}

func mlSummaryKey(t *testing.T, sum *core.Summary) string {
	t.Helper()
	if len(sum.Steps) == 0 {
		t.Fatal("workload produced no merges")
	}
	var b strings.Builder
	for _, st := range sum.Steps {
		fmt.Fprintf(&b, "%v->%s score=%b dist=%b size=%d\n", st.Members, st.New, st.Score, st.Dist, st.Size)
	}
	fmt.Fprintf(&b, "dist=%b stop=%s expr=%s", sum.Dist, sum.StopReason, sum.Expr)
	return b.String()
}

// oracleRow is one engine configuration the matrix checks.
type oracleRow struct {
	name    string
	load    func(*testing.T) *datasets.Workload
	samples int
	workers int
	arity   int
	// wantBatch says the workload cannot be planned, so it must score
	// through DistanceBatch and never through DistanceDelta.
	wantBatch bool
}

// The matrix weights favour size, so every fixture reaches merges of
// nonzero distance within oracleMaxSteps.
const (
	oracleSeed           = 21
	oracleWDist          = 0.2
	oracleWSize          = 0.8
	oracleProbe          = provenance.Annotation("\x00oracle")
	oracleMaxSteps       = 4
	oracleSamplesPerStep = 8
)

// TestEngineMatchesOracle is the engine-vs-oracle matrix. Each row runs
// Algorithm 1 on the production scoring path its input selects —
// MovieLens through the delta engine on the blocked kernel, DDP through
// the DistanceBatch tree-walk sweep, a negative-constant aggregation
// through the delta engine's scalar sweep — and then replays every
// committed step on a fresh copy of the workload: each
// constraint-satisfying candidate is materialized (Apply/Compose) and
// scored by Estimator.ReferenceDistance, the plain Def. 3.2.2 loop. The
// engine's score must equal the oracle minimum bit for bit, and the
// oracle distance of the chosen merge must equal Step.Dist bit for bit.
// Sampling rows replay the shared sample sets from a second source with
// the same seed.
func TestEngineMatchesOracle(t *testing.T) {
	var rows []oracleRow
	for _, samples := range []int{0, oracleSamplesPerStep} {
		for _, workers := range []int{1, 4} {
			for _, arity := range []int{2, 3} {
				rows = append(rows, oracleRow{
					name: fmt.Sprintf("movielens/samples=%d/workers=%d/arity=%d", samples, workers, arity),
					load: movieLens, samples: samples, workers: workers, arity: arity,
				})
			}
		}
	}
	rows = append(rows,
		oracleRow{name: "ddp/samples=0/workers=1/arity=2", load: ddpWorkload, workers: 1, arity: 2, wantBatch: true},
		oracleRow{name: "ddp/samples=8/workers=4/arity=3", load: ddpWorkload, samples: oracleSamplesPerStep, workers: 4, arity: 3, wantBatch: true},
		oracleRow{name: "negconst/samples=0/workers=1/arity=2", load: negConstWorkload, workers: 1, arity: 2},
		oracleRow{name: "negconst/samples=8/workers=4/arity=3", load: negConstWorkload, samples: oracleSamplesPerStep, workers: 4, arity: 3},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkAgainstOracle(t, row) })
	}
}

func checkAgainstOracle(t *testing.T, row oracleRow) {
	w := row.load(t)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	if row.samples > 0 {
		est.Samples = row.samples
		est.Rand = rand.New(rand.NewSource(oracleSeed))
	}
	s, err := core.New(core.Config{
		Policy: w.Policy, Estimator: est,
		WDist: oracleWDist, WSize: oracleWSize,
		MaxSteps: oracleMaxSteps, MergeArity: row.arity, Parallelism: row.workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Steps) == 0 {
		t.Fatal("workload produced no merges")
	}
	st := est.Stats()
	if row.wantBatch && (st.BatchCalls == 0 || st.DeltaCalls != 0) {
		t.Fatalf("unplannable input: %d batch calls, %d delta calls; want batch only", st.BatchCalls, st.DeltaCalls)
	}
	if !row.wantBatch && (st.DeltaCalls == 0 || st.BatchCalls != 0) {
		t.Fatalf("aggregation: %d delta calls, %d batch calls; want delta only", st.DeltaCalls, st.BatchCalls)
	}

	// Replay on a fresh copy of the workload, so the policy registers
	// summary names exactly as the engine run did. A run that stops at
	// once (TargetSize = the original size) yields the state after the
	// free Prop. 4.2.1 pre-step, which scores nothing.
	rw := row.load(t)
	pre, err := core.New(core.Config{
		Policy: rw.Policy, Estimator: rw.Estimator(datasets.CancelSingleAnnotation),
		WDist: oracleWDist, WSize: oracleWSize, TargetSize: rw.Prov.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start, err := pre.Summarize(rw.Prov)
	if err != nil {
		t.Fatal(err)
	}
	p0, cur, cum := rw.Prov, start.Expr, start.Mapping
	origAnns, origSize := p0.Annotations(), float64(p0.Size())
	oracle := rw.Estimator(datasets.CancelSingleAnnotation)
	draws := rand.New(rand.NewSource(oracleSeed))
	// nextVals returns the valuations of the engine's next scoring call:
	// the whole class, or the next shared sample set.
	nextVals := func() []provenance.Valuation {
		if row.samples == 0 {
			return oracle.Class.Valuations()
		}
		vals := make([]provenance.Valuation, row.samples)
		for i := range vals {
			vals[i] = oracle.Class.Sample(draws)
		}
		return vals
	}
	score := func(members []provenance.Annotation, name provenance.Annotation, vals []provenance.Valuation) (float64, float64) {
		h := provenance.MergeMapping(name, members...)
		next, nextCum := cur.Apply(h), cum.Compose(h)
		d := oracle.ReferenceDistance(p0, next, nextCum, provenance.GroupsOf(origAnns, nextCum), vals)
		return oracleWDist*d + oracleWSize*(float64(next.Size())/origSize), d
	}

	nextVals() // the engine's initial distance draws one sample set
	for k, step := range sum.Steps {
		if rw.Name == "negconst" {
			if ar := provenance.CompileArena(cur.(*provenance.Agg)); ar == nil || ar.Blockable() {
				t.Fatalf("step %d: expression is blockable; the row no longer covers the scalar sweep", k+1)
			}
		}
		anns := cur.Annotations()
		var vals []provenance.Valuation
		var roundMin float64
		// Round r scores the candidates that extend the chosen
		// Members[:r-1] by one annotation: every pair for r = 2, the
		// k-ary growth rounds after it.
		for r := 2; r <= len(step.Members); r++ {
			chosen := step.Members[:r-1]
			var cohort [][]provenance.Annotation
			for i, a := range anns {
				if r == 2 {
					for _, b := range anns[i+1:] {
						if rw.Policy.CanMerge(a, b) {
							cohort = append(cohort, []provenance.Annotation{a, b})
						}
					}
					continue
				}
				if !contains(chosen, a) && compatibleWithAll(rw.Policy, a, chosen) {
					cohort = append(cohort, append(append([]provenance.Annotation(nil), chosen...), a))
				}
			}
			vals = nextVals()
			roundMin = math.Inf(1)
			for _, ms := range cohort {
				if sc, _ := score(ms, oracleProbe, vals); sc < roundMin {
					roundMin = sc
				}
			}
			if got, _ := score(step.Members[:r], oracleProbe, vals); got != roundMin {
				t.Fatalf("step %d round %d: engine chose %v scoring %b, oracle minimum is %b", k+1, r, step.Members[:r], got, roundMin)
			}
		}
		if step.Score != roundMin {
			t.Fatalf("step %d: Step.Score %b != oracle minimum %b", k+1, step.Score, roundMin)
		}
		name := rw.Policy.MergeName(step.Members)
		if name != step.New {
			t.Fatalf("step %d: replay names the merge %s, engine named it %s", k+1, name, step.New)
		}
		if _, d := score(step.Members, name, vals); d != step.Dist {
			t.Fatalf("step %d: Step.Dist %b != oracle distance %b of the chosen merge", k+1, step.Dist, d)
		}
		h := provenance.MergeMapping(name, step.Members...)
		cur, cum = cur.Apply(h), cum.Compose(h)
	}
	if got := cur.String(); got != sum.Expr.String() {
		t.Fatalf("replayed expression diverged:\n%s\n--- engine ---\n%s", got, sum.Expr)
	}
}

func contains(list []provenance.Annotation, a provenance.Annotation) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func compatibleWithAll(pol *constraints.Policy, a provenance.Annotation, members []provenance.Annotation) bool {
	for _, m := range members {
		if !pol.CanMerge(a, m) {
			return false
		}
	}
	return true
}
