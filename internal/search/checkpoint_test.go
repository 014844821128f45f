package search_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/search"
)

// assertReportsEqual compares two reports through their JSON encoding
// (Metrics are scheduling-dependent and excluded from it).
func assertReportsEqual(t *testing.T, a, b *search.Report) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// Replayed differs by construction (one run resumed); the
	// certification report's engine diagnostics (Metrics, MeanCorrupted,
	// violation rates) are not recorded in the checkpoint and come back
	// zero on replay — mask both. The statistical content (utility,
	// interval, event frequencies, run counts) must match exactly.
	var ma, mb map[string]any
	if err := json.Unmarshal(ja, &ma); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jb, &mb); err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string]any{ma, mb} {
		delete(m, "replayed")
		if br, ok := m["bestReport"].(map[string]any); ok {
			delete(br, "Metrics")
			delete(br, "MeanCorrupted")
			delete(br, "CorrectnessViolations")
			delete(br, "PrivacyBreaches")
		}
	}
	ja, _ = json.Marshal(ma)
	jb, _ = json.Marshal(mb)
	if !bytes.Equal(ja, jb) {
		t.Errorf("reports differ:\n%s\n%s", ja, jb)
	}
}

// resumeOptions is the small search the resume tests checkpoint.
func resumeOptions() search.Options {
	o := acceptanceOptions
	o.FinalRuns = 800
	o.RaceRuns = 300
	return o
}

// TestResumeByteIdentity is the resume contract: a checkpoint
// interrupted at any record boundary — including right after a kill
// record, i.e. with an arm half-eliminated, and mid-line (a torn write)
// — resumes to a byte-identical file and an identical report.
func TestResumeByteIdentity(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	o := resumeOptions()
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	o.Checkpoint = full
	want, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(wantBytes), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 4 {
		t.Fatalf("checkpoint too small to cut: %d lines", len(lines))
	}

	// Cut points: after the header only, a third of the way in, right
	// after the first kill record (an arm just got half-eliminated —
	// its rivals' counts are still mid-race), and just before the final
	// record.
	cuts := []int{1, len(lines) / 3, len(lines) - 1}
	for i, l := range lines {
		if strings.Contains(l, `"kind":"kill"`) {
			cuts = append(cuts, i+1)
			break
		}
	}
	for _, cut := range cuts {
		partial := filepath.Join(dir, "partial.jsonl")
		if err := os.WriteFile(partial, []byte(strings.Join(lines[:cut], "")), 0o644); err != nil {
			t.Fatal(err)
		}
		o.Checkpoint = partial
		got, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o)
		if err != nil {
			t.Fatalf("resume from %d lines: %v", cut, err)
		}
		gotBytes, err := os.ReadFile(partial)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("resume from %d lines: checkpoint bytes differ from uninterrupted run", cut)
		}
		assertReportsEqual(t, want, got)
	}

	// Torn write: a prefix plus half of the next line. Resume must
	// truncate the tear and still converge byte-identically.
	cut := len(lines) / 2
	torn := strings.Join(lines[:cut], "") + lines[cut][:len(lines[cut])/2]
	partial := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(partial, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = partial
	got, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o)
	if err != nil {
		t.Fatalf("resume from torn checkpoint: %v", err)
	}
	gotBytes, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("torn resume: checkpoint bytes differ from uninterrupted run")
	}
	assertReportsEqual(t, want, got)

	// A completed checkpoint replays fully: no new simulation, same
	// report.
	o.Checkpoint = full
	again, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, want, again)
	finalBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalBytes, wantBytes) {
		t.Error("full replay modified the checkpoint")
	}

	// A foreign checkpoint (different seed) must be refused, not
	// silently overwritten.
	o.Checkpoint = full
	if _, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 12, o); err == nil {
		t.Error("foreign checkpoint accepted")
	}
}

// countdownCtx is a context whose Err turns context.Canceled once it
// has answered nil `left` times, so a test can cancel a search at an
// exact point of its schedule without sleeping. The search checks its
// context from its own goroutine only.
type countdownCtx struct {
	context.Context
	left, checks int
}

func (c *countdownCtx) Err() error {
	c.checks++
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestSearchCancelMidRun cancels a checkpointed search after k context
// checks, at parallelism 1 and 3: the search returns context.Canceled,
// its checkpoint is a whole-record prefix of the uninterrupted run's,
// and resuming it reproduces the uninterrupted bytes and report.
func TestSearchCancelMidRun(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	for _, par := range []int{1, 3} {
		o := resumeOptions()
		o.Parallelism = par
		dir := t.TempDir()
		o.Checkpoint = filepath.Join(dir, "full.jsonl")
		count := &countdownCtx{Context: context.Background(), left: math.MaxInt}
		want, err := search.RunContext(count, f.proto, f.space, f.gamma, f.sampler, 11, o)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(o.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		n := count.checks
		for _, k := range []int{0, 1, n / 3, n / 2, n - 1} {
			o.Checkpoint = filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", k))
			ctx := &countdownCtx{Context: context.Background(), left: k}
			if _, err := search.RunContext(ctx, f.proto, f.space, f.gamma, f.sampler, 11, o); !errors.Is(err, context.Canceled) {
				t.Fatalf("par %d, canceled after %d of %d checks: err %v, want context.Canceled", par, k, n, err)
			}
			cut, err := os.ReadFile(o.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(wantBytes, cut) || !bytes.HasSuffix(cut, []byte("\n")) || len(cut) == len(wantBytes) {
				t.Fatalf("par %d, canceled after %d of %d checks: checkpoint is not a proper record prefix (%d of %d bytes)",
					par, k, n, len(cut), len(wantBytes))
			}
			got, err := search.RunContext(context.Background(), f.proto, f.space, f.gamma, f.sampler, 11, o)
			if err != nil {
				t.Fatalf("par %d: resume after %d checks: %v", par, k, err)
			}
			gotBytes, err := os.ReadFile(o.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("par %d: resume after %d checks: checkpoint bytes differ from the uninterrupted run", par, k)
			}
			assertReportsEqual(t, want, got)
		}
	}
}

// TestResumeRejectsTamperedCounts: replay substitutes a record's
// outcome counts for simulation, so counts that do not partition the
// record's runs must be refused with an error naming the record, not
// certified. The wrapped variant sums to the runs only modulo 2⁶⁴.
func TestResumeRejectsTamperedCounts(t *testing.T) {
	f := acceptanceFamilies(t)[0]
	o := resumeOptions()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	o.Checkpoint = full
	if _, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndex(data, []byte(`{"kind":"final"`))
	if last < 0 {
		t.Fatal("no final record in the checkpoint")
	}
	events := regexp.MustCompile(`"events":\[[^\]]*\]`)
	for _, tampered := range []string{
		`"events":[0,0,5000,0]`,
		`"events":[4611686018427387904,4611686018427387904,4611686018427387904,4611686018427388704]`,
	} {
		path := filepath.Join(dir, "tampered.jsonl")
		bad := append(append([]byte{}, data[:last]...), events.ReplaceAll(data[last:], []byte(tampered))...)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		o.Checkpoint = path
		rep, err := search.Run(f.proto, f.space, f.gamma, f.sampler, 11, o)
		if err == nil {
			t.Fatalf("%s: resumed to %s = %v, want an error", tampered, rep.Best, rep.BestReport.Utility)
		}
		if !strings.Contains(err.Error(), "final") || !strings.Contains(err.Error(), "event counts") {
			t.Errorf("%s: error %q does not name the tampered final record", tampered, err)
		}
	}
}

// FuzzSearchResume resumes the resume tests' search from arbitrary
// record bytes behind a valid header. Resume must never panic: it
// either rejects the checkpoint or certifies the best arm on exactly
// FinalRuns runs.
func FuzzSearchResume(f *testing.F) {
	fam := acceptanceFamilies(f)[0]
	o := resumeOptions()
	o.Checkpoint = filepath.Join(f.TempDir(), "full.jsonl")
	if _, err := search.Run(fam.proto, fam.space, fam.gamma, fam.sampler, 11, o); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(o.Checkpoint)
	if err != nil {
		f.Fatal(err)
	}
	hd := full[:bytes.IndexByte(full, '\n')+1]
	f.Fuzz(func(t *testing.T, records []byte) {
		o := o
		o.Checkpoint = filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(o.Checkpoint, append(append([]byte{}, hd...), records...), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := search.Run(fam.proto, fam.space, fam.gamma, fam.sampler, 11, o)
		if err != nil {
			return
		}
		if rep.BestReport.Utility.N != int64(o.FinalRuns) {
			t.Fatalf("resumed to %s certified on n=%d, want FinalRuns=%d", rep.Best, rep.BestReport.Utility.N, o.FinalRuns)
		}
	})
}
