package service

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
)

func TestBuildProtocolAll(t *testing.T) {
	names := []string{
		"pi1", "pi2", "2sfe-opt", "2sfe-fixed2", "2sfe-oneround",
		"nsfe-opt:3", "nsfe-gmw12:4", "nsfe-lemma18:4", "nsfe-hybrid:5",
		"gk-polydomain:2", "gk-polyrange:2", "gk-pitilde",
		"nsfe-opt", // default n
	}
	for _, name := range names {
		p, sampler, err := BuildProtocol(name)
		if err != nil {
			t.Errorf("BuildProtocol(%q): %v", name, err)
			continue
		}
		if p == nil || sampler == nil {
			t.Errorf("BuildProtocol(%q): nil result", name)
		}
	}
}

func TestBuildProtocolErrors(t *testing.T) {
	for _, name := range []string{"bogus", "nsfe-opt:x", "gk-polydomain:-1"} {
		if _, _, err := BuildProtocol(name); err == nil {
			t.Errorf("BuildProtocol(%q) succeeded", name)
		}
	}
}

func TestBuildAdversaryAll(t *testing.T) {
	names := []string{
		"passive", "agen", "allbut-mixer", "leak-extractor",
		"static:1", "lock-abort:1+2", "setup-abort:2", "abort:3:1+2",
	}
	for _, name := range names {
		adv, err := BuildAdversary(name, 3)
		if err != nil {
			t.Errorf("BuildAdversary(%q): %v", name, err)
			continue
		}
		if adv == nil {
			t.Errorf("BuildAdversary(%q): nil", name)
		}
	}
}

func TestBuildAdversaryErrors(t *testing.T) {
	for _, name := range []string{"bogus", "lock-abort", "lock-abort:x", "abort:1", "abort:x:1", "abort:1:y"} {
		if _, err := BuildAdversary(name, 3); err == nil {
			t.Errorf("BuildAdversary(%q) succeeded", name)
		}
	}
}

// TestBuildProtocolRoundBound pins the request-size bound: a protocol
// with more than core.MaxRounds message rounds is rejected with an error
// naming the bound, before anything proportional to its size is built
// (gk-polyrange:2000 would have 16 million rounds), while every size the
// experiments use still validates.
func TestBuildProtocolRoundBound(t *testing.T) {
	for _, name := range []string{"gk-polydomain:8", "gk-polyrange:3", "gk-polydomain:256", "gk-polyrange:16"} {
		p, _, err := BuildProtocol(name)
		if err != nil {
			t.Errorf("BuildProtocol(%q): %v", name, err)
			continue
		}
		if r := p.NumRounds(); r > core.MaxRounds {
			t.Errorf("BuildProtocol(%q) accepted %d rounds", name, r)
		}
	}
	bound := strconv.Itoa(core.MaxRounds)
	for _, name := range []string{"gk-polydomain:257", "gk-polyrange:17", "gk-polyrange:2000",
		"gk-polydomain:1000000"} {
		_, _, err := BuildProtocol(name)
		if err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("BuildProtocol(%q) error = %v, want one naming the bound %s", name, err, bound)
		}
	}
	// p = 2^62: p²·|Z| wraps to 0 iterations, which would pass the round
	// bound; the constructor refuses the overflow.
	if _, _, err := BuildProtocol("gk-polyrange:4611686018427387904"); !errors.Is(err, gordonkatz.ErrBadParam) {
		t.Errorf("BuildProtocol(gk-polyrange:2^62) error = %v, want %v", err, gordonkatz.ErrBadParam)
	}
	for _, p := range []Params{
		SearchParams{Proto: "gk-polyrange:2000"},
		EstimateParams{Proto: "gk-polydomain:1000000", Adv: "agen", Runs: 1},
		SupParams{Proto: "gk-polyrange:17", Advs: []string{"agen"}, Runs: 1},
	} {
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("%T.Validate() error = %v, want one naming the bound %s", p, err, bound)
		}
	}
	for _, p := range []Params{
		SearchParams{Proto: "gk-polydomain:8"},
		SearchParams{Proto: "gk-polyrange:3"},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v.Validate(): %v", p, err)
		}
	}
}
