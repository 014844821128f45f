package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// marshalLine renders one checkpoint line. json.Marshal over the fixed
// struct shapes is deterministic (field order is declaration order), so
// equal records give equal bytes.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Checkpoint streams records to a JSONL file, flushing after every line
// so an interrupted sweep loses at most one torn trailing line.
type Checkpoint struct {
	f  *os.File
	w  *bufio.Writer
	n  int // records written (excluding the header)
	hd header
}

// CreateCheckpoint starts a fresh checkpoint at path, writing the
// sweep's header line.
func CreateCheckpoint(path string, s *Sweep) (*Checkpoint, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: create checkpoint: %w", err)
	}
	cp := &Checkpoint{f: f, w: bufio.NewWriter(f), hd: s.header()}
	line, err := marshalLine(cp.hd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := cp.w.Write(line); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: write checkpoint header: %w", err)
	}
	if err := cp.flush(); err != nil {
		f.Close()
		return nil, err
	}
	return cp, nil
}

func (cp *Checkpoint) flush() error {
	if err := cp.w.Flush(); err != nil {
		return fmt.Errorf("sweep: flush checkpoint: %w", err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("sweep: sync checkpoint: %w", err)
	}
	return nil
}

// Append writes one record and flushes it to disk.
func (cp *Checkpoint) Append(rec Record) error {
	line, err := marshalLine(rec)
	if err != nil {
		return fmt.Errorf("sweep: marshal record %s: %w", rec.Key, err)
	}
	if _, err := cp.w.Write(line); err != nil {
		return fmt.Errorf("sweep: write record %s: %w", rec.Key, err)
	}
	cp.n++
	return cp.flush()
}

// Done reports the number of records written through this handle.
func (cp *Checkpoint) Done() int { return cp.n }

// Close flushes and closes the underlying file.
func (cp *Checkpoint) Close() error {
	if err := cp.flush(); err != nil {
		cp.f.Close()
		return err
	}
	return cp.f.Close()
}

// LoadCheckpoint reads a (possibly interrupted) checkpoint and returns
// the completed records in file order. It validates the header against
// the planned sweep, validates every record's key against the plan's
// record sequence, and tolerates exactly one torn trailing line (an
// interrupt mid-write), which it reports via truncateTo ≥ 0 — the byte
// offset the file must be truncated to before appending. A checkpoint
// from a different grid, or with records out of sequence, is an error.
func LoadCheckpoint(path string, s *Sweep) (recs []Record, truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	wantHeader, err := marshalLine(s.header())
	if err != nil {
		return nil, -1, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.Equal(data[:nl+1], wantHeader) {
		return nil, -1, fmt.Errorf("sweep: checkpoint %s does not match this sweep (header mismatch)", path)
	}

	wantKeys := s.keys()
	offset := int64(nl + 1)
	rest := data[nl+1:]
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Torn trailing line: the interrupt hit mid-write. Resume by
			// truncating it away and re-running its record.
			return recs, offset, nil
		}
		line := rest[:nl+1]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A complete but unparsable line is corruption, not a tear.
			return nil, -1, fmt.Errorf("sweep: checkpoint record %d: %w", len(recs), err)
		}
		if len(recs) >= len(wantKeys) {
			return nil, -1, fmt.Errorf("sweep: checkpoint has %d extra record(s)", len(recs)+1-len(wantKeys))
		}
		if rec.Key != wantKeys[len(recs)] {
			return nil, -1, fmt.Errorf("sweep: checkpoint record %d has key %s, want %s (grid drift)",
				len(recs), rec.Key, wantKeys[len(recs)])
		}
		recs = append(recs, rec)
		offset += int64(nl + 1)
		rest = rest[nl+1:]
	}
	return recs, offset, nil
}

// ResumeCheckpoint reopens path for appending after LoadCheckpoint,
// truncating any torn trailing line first.
func ResumeCheckpoint(path string, s *Sweep, done int, truncateTo int64) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("sweep: reopen checkpoint: %w", err)
	}
	if err := f.Truncate(truncateTo); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: truncate torn checkpoint tail: %w", err)
	}
	if _, err := f.Seek(truncateTo, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: seek checkpoint: %w", err)
	}
	return &Checkpoint{f: f, w: bufio.NewWriter(f), n: done, hd: s.header()}, nil
}
