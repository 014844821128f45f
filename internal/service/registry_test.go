package service

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/sim"
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

// TestRegistryStrategiesCloneToOwnType pins that every strategy the
// registry builds — each adversary name and each arm of each strategy
// space, wrapped sub-strategies included — clones to its own concrete
// type. A clone of another type (one inherited from an embedded
// strategy) would play a different strategy on every worker that joins
// the estimate.
func TestRegistryStrategiesCloneToOwnType(t *testing.T) {
	var check func(label string, adv sim.Adversary)
	check = func(label string, adv sim.Adversary) {
		c, ok := adv.(sim.AdversaryCloner)
		if !ok {
			t.Errorf("%s: %T does not implement sim.AdversaryCloner", label, adv)
			return
		}
		if clone := c.CloneAdversary(); reflect.TypeOf(clone) != reflect.TypeOf(adv) {
			t.Errorf("%s: %T clones to %T", label, adv, clone)
		}
		switch a := adv.(type) {
		case *adversary.InputSubst:
			check(label+"/inner", a.Adversary)
		case *adversary.Mixer:
			for i, sub := range a.Strategies {
				check(fmt.Sprintf("%s/sub%d", label, i), sub)
			}
		}
	}
	for _, name := range []string{
		"passive", "agen", "allbut-mixer", "leak-extractor",
		"static:1", "lock-abort:1+2", "setup-abort:2", "abort:3:1+2",
	} {
		adv, err := BuildAdversary(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		check(name, adv)
	}
	for _, proto := range []string{
		"pi1", "pi2", "2sfe-opt", "2sfe-fixed2", "2sfe-oneround",
		"gk-polydomain:2", "gk-polyrange:2", "gk-pitilde",
		"nsfe-opt:3", "nsfe-gmw12:4", "nsfe-lemma18:4", "nsfe-hybrid:3",
	} {
		for _, name := range []string{SpaceRaw, SpaceClassic} {
			space, err := BuildSpace(name, proto)
			if err != nil {
				if name == SpaceRaw && strings.HasPrefix(proto, "nsfe-") {
					continue // the raw space is two-party only
				}
				t.Fatal(err)
			}
			for i := 0; i < space.Len(); i++ {
				arm := space.At(i)
				check(proto+"/"+name+"/"+arm.Name, arm.Adv)
			}
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
