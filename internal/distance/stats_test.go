package distance

import (
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/valuation"
)

func TestStatsCountsCacheAndEvaluations(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Audience", "U1", "U3")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))

	e.Distance(p0, pc, h, groups)
	st := e.Stats()
	if st.DistanceCalls != 1 {
		t.Fatalf("DistanceCalls = %d, want 1", st.DistanceCalls)
	}
	if st.Evaluations != 3 {
		t.Fatalf("Evaluations = %d, want 3 (one per class valuation)", st.Evaluations)
	}
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("cold run hits/misses = %d/%d, want 0/3", st.CacheHits, st.CacheMisses)
	}

	// A second Distance over the same original reuses every evaluation.
	e.Distance(p0, pc, h, groups)
	st = e.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 3 {
		t.Fatalf("warm run hits/misses = %d/%d, want 3/3", st.CacheHits, st.CacheMisses)
	}
	if st.DistanceTime <= 0 {
		t.Fatalf("DistanceTime = %v, want > 0", st.DistanceTime)
	}

	if e.Stats().CacheResets != 0 {
		t.Fatalf("resets = %d before any reset", e.Stats().CacheResets)
	}
	e.ResetCache()
	if got := e.Stats().CacheResets; got != 1 {
		t.Fatalf("CacheResets = %d, want 1", got)
	}
	// Resetting an already-empty cache is not a reset.
	e.ResetCache()
	if got := e.Stats().CacheResets; got != 1 {
		t.Fatalf("CacheResets after idempotent reset = %d, want 1", got)
	}
}

func TestStatsCountsSamples(t *testing.T) {
	p0 := matchPoint()
	h := provenance.MergeMapping("Audience", "U1", "U3")
	pc := p0.Apply(h)
	groups := provenance.GroupsOf(p0.Annotations(), h)
	class := valuation.NewCancelSingleAnnotation([]provenance.Annotation{"U1", "U2", "U3"})
	e := estimator(class, AbsDiff(nil))
	e.Samples = 17
	e.Rand = rand.New(rand.NewSource(1))

	e.Distance(p0, pc, h, groups)
	st := e.Stats()
	if st.Samples != 17 {
		t.Fatalf("Samples = %d, want 17", st.Samples)
	}
	if st.Evaluations != 17 {
		t.Fatalf("Evaluations = %d, want 17", st.Evaluations)
	}
}
