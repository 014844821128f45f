package main

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sweep"
)

// Every check must accept a genuine answer and reject a tampered one.

func TestCheckHTTPRejectsTampered(t *testing.T) {
	if err := checkHTTP(200, "miss", "miss"); err != nil {
		t.Fatal(err)
	}
	if checkHTTP(500, "miss", "miss") == nil {
		t.Error("status 500 accepted")
	}
	if checkHTTP(200, "hit", "miss") == nil {
		t.Error("a cache hit accepted where a miss was required")
	}
	if checkHTTP(200, "", "hit") == nil {
		t.Error("a missing cache header accepted where a hit was required")
	}
}

func TestCheckSameBodyRejectsTampered(t *testing.T) {
	body := []byte(`{"proto":"pi2","report":{"utility":{"mean":0.75}}}`)
	if err := checkSameBody(append([]byte(nil), body...), body); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), body...)
	tampered[len(tampered)-4] = '6'
	if checkSameBody(tampered, body) == nil {
		t.Error("a body differing in one byte accepted")
	}
}

func TestCheckDigestsRejectsTampered(t *testing.T) {
	a, b := newDigest(), newDigest()
	a.add([]byte("x"))
	b.add([]byte("x"))
	if err := checkDigests(a.String(), b.String()); err != nil {
		t.Fatal(err)
	}
	b.add([]byte("y"))
	if checkDigests(a.String(), b.String()) == nil {
		t.Error("different answer streams accepted")
	}
}

// estimateAnswer runs a real estimate and renders it the way the daemon
// renders /v1/estimate (the fields the checks read).
func estimateAnswer(t *testing.T, op serveOp) (serveAnswer, core.UtilityReport) {
	t.Helper()
	proto, sampler, err := service.BuildProtocol(op.Shape.Proto)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := service.BuildAdversary(op.Shape.Adv, proto.NumParties())
	if err != nil {
		t.Fatal(err)
	}
	g := service.DefaultPayoff(op.Shape.Proto)
	rep, err := core.EstimateUtility(proto, adv, g, sampler, daemonRuns, op.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return serveAnswer{
		Proto: op.Shape.Proto, Adv: op.Shape.Adv, Runs: daemonRuns, Seed: op.Seed,
		Gamma:  [4]float64{g.G00, g.G01, g.G10, g.G11},
		Report: reportOf(rep),
	}, rep
}

func reportOf(rep core.UtilityReport) reportView {
	return reportView{
		Utility: statView{Mean: rep.Utility.Mean, HalfWidth: rep.Utility.HalfWidth, N: rep.Utility.N},
		Runs:    rep.Runs,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeAnswerChecksRejectTampered(t *testing.T) {
	op := serveOp{Shape: serveShape{Proto: "2sfe-opt", Adv: "lock-abort:1"}, Seed: 41}
	a, rep := estimateAnswer(t, op)
	parsed, err := parseServeAnswer(op, mustJSON(t, a))
	if err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
	if err := checkReplayEstimate(parsed, rep); err != nil {
		t.Fatalf("genuine replay rejected: %v", err)
	}

	tamper := map[string]func(*serveAnswer){
		"seed":             func(a *serveAnswer) { a.Seed++ },
		"protocol":         func(a *serveAnswer) { a.Proto = "pi2" },
		"adversary":        func(a *serveAnswer) { a.Adv = "agen" },
		"runs":             func(a *serveAnswer) { a.Report.Runs = 999 },
		"samples":          func(a *serveAnswer) { a.Report.Utility.N = 10 },
		"payoff":           func(a *serveAnswer) { a.Gamma[3] = 0.75 },
		"above Theorem 3":  func(a *serveAnswer) { a.Report.Utility.Mean = 0.9 },
		"utility past one": func(a *serveAnswer) { a.Report.Utility.Mean = 1.5 },
	}
	for name, f := range tamper {
		bad := a
		f(&bad)
		if _, err := parseServeAnswer(op, mustJSON(t, bad)); err == nil {
			t.Errorf("answer with tampered %s accepted", name)
		}
	}

	bad := parsed
	bad.Report.Utility.Mean = math.Nextafter(bad.Report.Utility.Mean, 2)
	if checkReplayEstimate(bad, rep) == nil {
		t.Error("utility one ulp off the library replay accepted")
	}
	bad = parsed
	bad.Report.Utility.HalfWidth *= 1.5
	if checkReplayEstimate(bad, rep) == nil {
		t.Error("half-width off the library replay accepted")
	}
}

func TestSupAnswerChecksRejectTampered(t *testing.T) {
	op := serveOp{Shape: serveShape{Proto: "pi2", Advs: supAdvs}, Seed: 43}
	proto, sampler, err := service.BuildProtocol(op.Shape.Proto)
	if err != nil {
		t.Fatal(err)
	}
	space := make(core.SliceSpace, len(supAdvs))
	for i, name := range supAdvs {
		adv, err := service.BuildAdversary(name, proto.NumParties())
		if err != nil {
			t.Fatal(err)
		}
		space[i] = core.NamedAdversary{Name: name, Adv: adv}
	}
	g := service.DefaultPayoff(op.Shape.Proto)
	rep, err := core.SupUtilitySpace(proto, space, g, sampler, daemonRuns, op.Seed)
	if err != nil {
		t.Fatal(err)
	}
	a := serveAnswer{
		Proto: op.Shape.Proto, Advs: supAdvs, Runs: daemonRuns, Seed: op.Seed,
		Gamma: [4]float64{g.G00, g.G01, g.G10, g.G11},
		Best:  rep.Best, BestReport: reportOf(rep.BestReport),
	}
	names := make([]string, 0, len(rep.All))
	for name := range rep.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a.Strategies = append(a.Strategies, struct {
			Name   string     `json:"name"`
			Report reportView `json:"report"`
		}{name, reportOf(rep.All[name])})
	}
	parsed, err := parseServeAnswer(op, mustJSON(t, a))
	if err != nil {
		t.Fatalf("genuine sup answer rejected: %v", err)
	}
	if err := checkReplaySup(parsed, rep); err != nil {
		t.Fatalf("genuine sup replay rejected: %v", err)
	}

	for _, name := range names {
		if name != rep.Best {
			bad := a
			bad.Best = name
			if _, err := parseServeAnswer(op, mustJSON(t, bad)); err == nil {
				t.Errorf("sup answer naming %q best accepted", name)
			}
			if checkReplaySup(bad, rep) == nil {
				t.Errorf("sup replay with best %q accepted", name)
			}
			break
		}
	}
	bad := a
	bad.Strategies = append(bad.Strategies[:0:0], a.Strategies...)
	bad.Strategies[0].Report.Utility.Mean = math.Nextafter(bad.Strategies[0].Report.Utility.Mean, -1)
	if checkReplaySup(bad, rep) == nil {
		t.Error("sup strategy one ulp off the library replay accepted")
	}
	bad.Strategies = bad.Strategies[:1]
	if _, err := parseServeAnswer(op, mustJSON(t, bad)); err == nil {
		t.Error("sup answer missing strategies accepted")
	}
}

func TestSweepChecksRejectTampered(t *testing.T) {
	spec := sweep.Spec{
		Families: []string{"2sfe", "gk"}, Gammas: []core.Payoff{core.StandardPayoff()},
		Ns: []int{2}, Ps: []int{2}, Costs: []string{"zero"}, Seed: 5,
	}
	plan, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sweep.Run(spec, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweepSummary(sum, plan.Records()); err != nil {
		t.Fatalf("genuine summary rejected: %v", err)
	}
	for _, rec := range sum.Records {
		if err := checkSweepRecord(rec); err != nil {
			t.Fatalf("genuine record rejected: %v", err)
		}
	}

	rec, gk := sum.Records[0], sum.Records[len(sum.Records)-1]
	if rec.Family != "2sfe" || gk.Family != "gk" {
		t.Fatalf("grid order changed: first %s, last %s", rec.Family, gk.Family)
	}
	tamper := map[string]func(*sweep.Record){
		"verdict":           func(r *sweep.Record) { r.OK = false },
		"mean above bound":  func(r *sweep.Record) { r.Mean = 0.95 },
		"samples":           func(r *sweep.Record) { r.Samples-- },
		"family":            func(r *sweep.Record) { r.Family = "nosuch" },
		"gk past 1/p bound": func(r *sweep.Record) { *r = gk; r.Mean = 0.9 },
		"runs dropped to 0": func(r *sweep.Record) { r.Runs, r.Samples = 0, 0 },
	}
	for name, f := range tamper {
		bad := rec
		f(&bad)
		if checkSweepRecord(bad) == nil {
			t.Errorf("record with tampered %s accepted", name)
		}
	}
	short := *sum
	short.Records = short.Records[:len(short.Records)-1]
	if checkSweepSummary(&short, plan.Records()) == nil {
		t.Error("summary missing a record accepted")
	}
	breached := *sum
	breached.Breaches = []sweep.Record{rec}
	if checkSweepSummary(&breached, plan.Records()) == nil {
		t.Error("summary with a breach accepted")
	}
}

func TestSearchWinnerCheckRejectsTampered(t *testing.T) {
	p := searchParams("2sfe-opt", 17)
	proto, sampler, err := service.BuildProtocol(p.Proto)
	if err != nil {
		t.Fatal(err)
	}
	space, err := service.BuildSpace(p.Space, p.Proto)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := search.Run(proto, space, service.DefaultPayoff(p.Proto), sampler, p.Seed, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSearchWinner(p, rep); err != nil {
		t.Fatalf("genuine search rejected: %v", err)
	}
	tamper := map[string]func(*search.Report){
		"winner below the sup": func(r *search.Report) { r.BestReport.Utility.Mean -= 0.3 },
		"winner above the sup": func(r *search.Report) { r.BestReport.Utility.Mean += 0.2 },
		"certification runs":   func(r *search.Report) { r.BestReport.Utility.N = 4000 },
		"no winner":            func(r *search.Report) { r.Best = "" },
		"run accounting":       func(r *search.Report) { r.TotalRuns = r.ExhaustiveRuns + 1 },
	}
	for name, f := range tamper {
		bad := *rep
		f(&bad)
		if checkSearchWinner(p, &bad) == nil {
			t.Errorf("search with tampered %s accepted", name)
		}
	}
}
