package sweep

// Frozen-matrix determinism contract: every sweep record must stay
// byte-identical to the checked-in fixture. This test is the
// repository's tripwire against any change leaking into the records — a
// single drifted byte here means cached results, checkpoints, and
// cross-version comparisons are silently broken.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frozenSpec is the exact grid the checked-in fixture
// (testdata/frozen_vr_off.jsonl) was generated from. Do not change it —
// regenerate the fixture only for a deliberate, documented format break.
func frozenSpec() Spec {
	return Spec{
		Families: []string{"2sfe", "gk"},
		Gammas:   StandardGammas(),
		Ns:       []int{2},
		Ps:       []int{2, 4},
		Costs:    []string{"zero"},
		Runs:     200,
		Seed:     7,
	}
}

// TestFrozenMatrixByteIdentical replays the fixture grid and demands
// byte equality with the fixture, record for record.
func TestFrozenMatrixByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "frozen_vr_off.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(frozenSpec(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, rec := range sum.Records {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines := strings.Split(got.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("record %d drifted from the frozen matrix\n got: %s\nwant: %s", i, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("record count drifted: got %d lines, frozen matrix has %d", len(gotLines), len(wantLines))
	}
}
