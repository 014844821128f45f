package service

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/search"
)

// TestSearchJob pins the search job's determinism contract: a pool job
// — fresh and cache-hit — returns the very report a direct search.Run
// call computes for the same (params, seed).
func TestSearchJob(t *testing.T) {
	params := SearchParams{
		Proto: "pi1", Space: SpaceRaw,
		Wave: 40, Growth: 2, RaceRuns: 200, FinalRuns: 400, Seed: 11,
	}
	proto, sampler, err := BuildProtocol(params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	space, err := BuildSpace(params.Space, params.Proto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search.Run(proto, space, DefaultPayoff(params.Proto), sampler, params.Seed, params.Options())
	if err != nil {
		t.Fatal(err)
	}

	p := newTestPool(t, 2)
	j, err := p.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Search == nil {
		t.Fatal("search job returned no report")
	}
	if res.Search.Best != want.Best || !reflect.DeepEqual(res.Search.BestReport, want.BestReport) {
		t.Fatalf("service search best %q %+v != direct run %q %+v",
			res.Search.Best, res.Search.BestReport, want.Best, want.BestReport)
	}
	if res.Search.TotalRuns != want.TotalRuns || res.Search.Waves != want.Waves {
		t.Fatalf("schedule diverged: %d runs / %d waves vs %d / %d",
			res.Search.TotalRuns, res.Search.Waves, want.TotalRuns, want.Waves)
	}

	// A resubmission must hit the cache.
	j2, err := p.Submit(params)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("search resubmission missed the cache")
	}
	if !reflect.DeepEqual(r2.Search, res.Search) {
		t.Fatalf("cached search report differs:\n got %+v\nwant %+v", r2.Search, res.Search)
	}
}

// TestSearchParamsKeyCoversKnobs: every result-changing knob must move
// the cache key; the statuses here are exactly the ones the racing
// engine's ParamString covers.
func TestSearchParamsKeyCoversKnobs(t *testing.T) {
	base := SearchParams{Proto: "pi1", RaceRuns: 200, FinalRuns: 400, Seed: 1}
	variants := []SearchParams{
		{Proto: "pi2", RaceRuns: 200, FinalRuns: 400, Seed: 1},
		{Proto: "pi1", RaceRuns: 300, FinalRuns: 400, Seed: 1},
		{Proto: "pi1", RaceRuns: 200, FinalRuns: 500, Seed: 1},
		{Proto: "pi1", RaceRuns: 200, FinalRuns: 400, Delta: 0.1, Seed: 1},
		{Proto: "pi1", RaceRuns: 200, FinalRuns: 400, MaxArms: 3, Seed: 1},
		{Proto: "pi1", Space: SpaceClassic, RaceRuns: 200, FinalRuns: 400, Seed: 1},
		{Proto: "pi1", Gamma: &[4]float64{0, 0, 1, 0}, RaceRuns: 200, FinalRuns: 400, Seed: 1},
	}
	ref := base.paramString()
	if ref == "" {
		t.Fatal("base paramString is empty")
	}
	for i, v := range variants {
		if s := v.paramString(); s == ref {
			t.Errorf("variant %d: paramString identical to base: %q", i, s)
		}
	}
}

// TestSearchParamsValidation rejects unresolvable names and malformed
// statistical knobs before any work is queued.
func TestSearchParamsValidation(t *testing.T) {
	cases := []struct {
		name string
		p    SearchParams
		want string
	}{
		{"unknown proto", SearchParams{Proto: "nope"}, "unknown"},
		{"unknown space", SearchParams{Proto: "pi1", Space: "fancy"}, "unknown strategy space"},
		{"raw space multi-party", SearchParams{Proto: "nsfe-opt:3", Space: SpaceRaw}, "two-party only"},
		{"negative knob", SearchParams{Proto: "pi1", RaceRuns: -1}, "negative"},
		{"delta too big", SearchParams{Proto: "pi1", Delta: 1}, "delta"},
		{"delta negative", SearchParams{Proto: "pi1", Delta: -0.1}, "delta"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	ok := SearchParams{Proto: "pi1"}
	if err := ok.Validate(); err != nil {
		t.Errorf("default raw search on pi1 rejected: %v", err)
	}
	classic := SearchParams{Proto: "nsfe-opt:3", Space: SpaceClassic}
	if err := classic.Validate(); err != nil {
		t.Errorf("classic multi-party search rejected: %v", err)
	}
}

// TestBuildSpaceShapes pins the registry spaces' structure: raw carries
// the passive arm at index 0 and the first-hit arm only for the
// Gordon–Katz poly-domain protocols; classic adapts the curated slices.
func TestBuildSpaceShapes(t *testing.T) {
	raw, err := BuildSpace(SpaceRaw, "2sfe-opt")
	if err != nil {
		t.Fatal(err)
	}
	if raw.Len() == 0 || raw.At(0).Name != "passive" {
		t.Fatalf("raw space: len=%d first=%q, want passive at index 0", raw.Len(), raw.At(0).Name)
	}
	found := false
	gk, err := BuildSpace("", "gk-polydomain:2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gk.Len(); i++ {
		if strings.HasPrefix(gk.At(i).Name, "hit-") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("gk-polydomain raw space is missing the first-hit arm")
	}
	for i := 0; i < raw.Len(); i++ {
		if strings.HasPrefix(raw.At(i).Name, "hit-") {
			t.Fatal("non-GK raw space unexpectedly carries a first-hit arm")
		}
	}
	classic, err := BuildSpace(SpaceClassic, "nsfe-opt:3")
	if err != nil {
		t.Fatal(err)
	}
	if classic.Len() == 0 {
		t.Fatal("classic multi-party space is empty")
	}
}
