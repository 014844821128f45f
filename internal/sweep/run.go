package sweep

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/jsonl"
)

// Summary is the outcome of a sweep run.
type Summary struct {
	// Records holds every record in checkpoint order (cells, then sums).
	Records []Record
	// Breaches lists the records with at least one failed certification.
	Breaches []Record
	// Resumed is how many records were restored from the checkpoint
	// instead of re-measured.
	Resumed int
	// TotalChecks is the number of certifications performed.
	TotalChecks int
	// Skipped surfaces grid points that could not be instantiated.
	Skipped []string
}

// OK reports whether every certification in the sweep passed.
func (s *Summary) OK() bool { return len(s.Breaches) == 0 }

// ErrBreach is returned (wrapped) by Run when any certification fails.
var ErrBreach = errors.New("sweep: bound breach")

// Progress, when non-nil, receives every record as it is produced or
// restored (done counts records so far, total the full sweep).
type Progress func(done, total int, rec Record, resumed bool)

// Run plans and executes the sweep. With a non-empty checkpoint path the
// record stream is checkpointed to JSONL; if the file already exists the
// sweep resumes after its last complete record, re-measuring nothing,
// so an interrupted-then-resumed run writes byte-identical records to
// an uninterrupted one. Run returns the summary together with an
// ErrBreach-wrapping error when any certification failed — the summary
// stays valid in that case.
func Run(spec Spec, path string, progress Progress) (*Summary, error) {
	return RunContext(context.Background(), spec, path, progress)
}

// RunContext is Run with cancellation: ctx is checked between cells, so
// a canceled sweep stops after the record in flight instead of running
// the grid to completion. The checkpoint stays valid — a later run
// resumes after the last completed record. Cancellation never truncates
// or reorders records, so the byte-identity contract is unaffected.
func RunContext(ctx context.Context, spec Spec, path string, progress Progress) (*Summary, error) {
	sw, err := Plan(spec)
	if err != nil {
		return nil, err
	}
	sum := &Summary{TotalChecks: sw.TotalChecks(), Skipped: sw.Skipped}
	total := sw.Records()

	var cp *jsonl.Writer
	var done []Record
	if path != "" {
		cp, done, err = jsonl.Open(path, "sweep", sw.header(), sw.checkRecord())
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		sum.Resumed = len(done)
	}

	emit := func(rec Record, resumed bool) error {
		sum.Records = append(sum.Records, rec)
		if !rec.OK {
			sum.Breaches = append(sum.Breaches, rec)
		}
		if !resumed && cp != nil {
			if err := cp.Append(rec, rec.Key); err != nil {
				return err
			}
		}
		if progress != nil {
			progress(len(sum.Records), total, rec, resumed)
		}
		return nil
	}

	// Cells in canonical order, restoring the checkpointed prefix.
	cellRecs := make([]Record, len(sw.Cells))
	for i, c := range sw.Cells {
		var rec Record
		resumed := i < len(done)
		if resumed {
			rec = done[i]
		} else {
			if err := ctx.Err(); err != nil {
				return sum, fmt.Errorf("sweep: canceled after %d of %d records: %w",
					len(sum.Records), total, err)
			}
			rec, err = sw.runCell(c)
			if err != nil {
				return sum, err
			}
		}
		cellRecs[i] = rec
		if err := emit(rec, resumed); err != nil {
			return sum, err
		}
	}
	// Aggregate sums, reduced from the cell records just produced (or
	// restored — either way the same deterministic values).
	for i, p := range sw.Sums {
		idx := len(sw.Cells) + i
		var rec Record
		resumed := idx < len(done)
		if resumed {
			rec = done[idx]
		} else {
			rec = sw.runSum(p, cellRecs)
		}
		if err := emit(rec, resumed); err != nil {
			return sum, err
		}
	}

	if !sum.OK() {
		return sum, fmt.Errorf("%w: %d of %d record(s) failed certification",
			ErrBreach, len(sum.Breaches), len(sum.Records))
	}
	return sum, nil
}
