package sweep

import (
	"bytes"
	"fmt"

	"repro/internal/jsonl"
	"repro/internal/stats"
)

// Check is one certification inside a record: Value compared against
// Bound in direction Dir ("<=", ">=", "="), with the statistical Margin
// the comparison was widened by.
type Check struct {
	Name   string  `json:"name"`
	Dir    string  `json:"dir"`
	Bound  float64 `json:"bound"`
	Value  float64 `json:"value"`
	Margin float64 `json:"margin"`
	OK     bool    `json:"ok"`
}

// Record is one checkpoint line: a measured cell ("cell") or an
// aggregate per-t sum ("sum"). Records are pure functions of (Spec,
// Seed), which is what makes the JSONL stream byte-identical across
// re-runs and resumes.
type Record struct {
	Kind      string     `json:"kind"`
	Key       string     `json:"key"`
	Family    string     `json:"family"`
	Gamma     [4]float64 `json:"gamma"`
	N         int        `json:"n"`
	T         int        `json:"t,omitempty"`
	Adv       string     `json:"adv,omitempty"`
	Cost      string     `json:"cost,omitempty"`
	P         int        `json:"p,omitempty"`
	Runs      int        `json:"runs,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	Mean      float64    `json:"mean"`
	HalfWidth float64    `json:"hw"`
	Samples   int64      `json:"samples,omitempty"`
	Events    [4]float64 `json:"events,omitempty"`
	Checks    []Check    `json:"checks"`
	Note      string     `json:"note,omitempty"`
	OK        bool       `json:"ok"`
}

// header is the checkpoint's first line. A resume refuses a checkpoint
// whose header does not match the planned sweep exactly — mixing grids
// would silently corrupt the record sequence.
type header struct {
	Kind    string `json:"kind"` // always "sweep-header"
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Records int    `json:"records"`
	// Grid fingerprints the planned record sequence: the hash of every
	// planned key in order.
	Grid string `json:"grid"`
}

const checkpointVersion = 1

// keys returns the planned record keys in checkpoint order: cells, then
// sums.
func (s *Sweep) keys() []string {
	keys := make([]string, 0, s.Records())
	for _, c := range s.Cells {
		keys = append(keys, c.Key)
	}
	for _, p := range s.Sums {
		keys = append(keys, p.Key)
	}
	return keys
}

func (s *Sweep) header() header {
	keys := ""
	for _, k := range s.keys() {
		keys += k + "\n"
	}
	return header{
		Kind:    "sweep-header",
		Version: checkpointVersion,
		Seed:    s.Spec.Seed,
		Records: s.Records(),
		Grid:    fmt.Sprintf("%016x", KeyHash(keys, s.Spec.Seed)),
	}
}

// checkRecord is the resume check for s's checkpoint. Record i must
// carry the i-th planned key, so records from another grid, or out of
// sequence, are refused. It must also be exactly the record this plan
// certifies from its stored measurement: a cell is re-certified from
// its Mean, HalfWidth, Samples, Events and Note, a sum is reduced again
// from the cells before it. An edited verdict, check or bound is
// refused, and so is a checkpoint written under other run counts or
// Delta, or under a Slack that changes a verdict.
func (s *Sweep) checkRecord() func(int, Record) error {
	want := s.keys()
	var cells []Record
	return func(i int, rec Record) error {
		if i >= len(want) {
			return fmt.Errorf("sweep: checkpoint has %d extra record(s)", i+1-len(want))
		}
		if rec.Key != want[i] {
			return fmt.Errorf("sweep: checkpoint record %d has key %s, want %s (grid drift)",
				i, rec.Key, want[i])
		}
		var rebuilt Record
		if i < len(s.Cells) {
			c := s.Cells[i]
			proto, err := buildProtocol(c.Family, c.N, c.P)
			if err != nil {
				return fmt.Errorf("sweep: cell %s: %w", c.Key, err)
			}
			est := stats.Estimate{Mean: rec.Mean, HalfWidth: rec.HalfWidth, N: rec.Samples}
			rebuilt = s.certify(c, proto, est, rec.Events, rec.Note)
			cells = append(cells, rec)
		} else {
			rebuilt = s.runSum(s.Sums[i-len(s.Cells)], cells)
		}
		// A rebuilt record that does not render (a non-finite value from
		// an edited measurement) cannot be the stored one either.
		got, err1 := jsonl.Line(rec)
		line, err2 := jsonl.Line(rebuilt)
		if err1 != nil || err2 != nil || !bytes.Equal(got, line) {
			return fmt.Errorf("sweep: checkpoint record %d (key %s) does not re-certify under this sweep: tampered checkpoint",
				i, rec.Key)
		}
		return nil
	}
}

// LoadCheckpoint reads a (possibly interrupted) checkpoint of s and
// returns its completed records and the offset to truncate a torn
// trailing line at (see jsonl.Load). The header must match the plan,
// and every record must pass checkRecord.
func LoadCheckpoint(path string, s *Sweep) (recs []Record, truncateTo int64, err error) {
	return jsonl.Load(path, "sweep", s.header(), s.checkRecord())
}
