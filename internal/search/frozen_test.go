package search_test

// Frozen-report determinism contract for the search engine: the full
// report must stay byte-identical to the fixture generated by the
// pre-variance engine — the tripwire that catches any drift in the
// racing schedule, the elimination rule or the coin streams.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/twoparty"
	"repro/internal/search"
)

// frozenSearch reproduces the fixture's exact inputs
// (testdata/frozen_vr_off.json, generated by the pre-variance engine).
// Do not change them — regenerate the fixture only for a deliberate,
// documented format break.
func frozenSearch() (*search.Report, error) {
	proto := twoparty.New(twoparty.Swap())
	space := core.SliceSpace(adversary.TwoPartySpace(proto.NumRounds()))
	return search.Run(proto, space, core.StandardPayoff(), uniform2(1<<20), 11,
		search.Options{Wave: 30, RaceRuns: 120, FinalRuns: 300})
}

func TestFrozenReportByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "frozen_vr_off.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := frozenSearch()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("line %d drifted from the frozen report\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("report length drifted: got %d lines, frozen report has %d", len(gotLines), len(wantLines))
	}
}
