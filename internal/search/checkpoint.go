package search

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Record is one checkpoint line: a scheduling decision ("prune",
// "kill") or a batch of measured runs ("wave", "final"). The record
// sequence is a pure function of (params, seed) — the schedule is
// deterministic and every measured count is a pure function of the arm
// seed — which is what makes the JSONL stream byte-identical across
// re-runs and resumes.
//
// Unlike the sweep, the sequence cannot be validated against a static
// plan (eliminations depend on measurements), so resume validates
// structurally instead: the engine replays the loaded records through
// its deterministic schedule and rejects the checkpoint the moment a
// record's (kind, arm, wave) differs from what the schedule demands.
type Record struct {
	Kind   string   `json:"kind"` // "prune" | "wave" | "kill" | "final"
	Arm    string   `json:"arm"`
	Key    string   `json:"key"`
	Wave   int      `json:"wave,omitempty"`
	Runs   int      `json:"runs,omitempty"`   // runs this record adds (wave/final)
	Events [4]int64 `json:"events,omitempty"` // outcome counts for those runs, E00..E11
	Mean   float64  `json:"mean"`             // cumulative utility mean after this record
	Lo     float64  `json:"lo"`               // certified interval at record time
	Hi     float64  `json:"hi"`
	Bound  float64  `json:"bound,omitempty"` // prune: static UB; kill: leader's lower bound
	By     string   `json:"by,omitempty"`    // the leader responsible for a prune/kill
}

// header is the checkpoint's first line. A resume refuses a checkpoint
// whose header does not match the planned search exactly — replaying
// records from a different space, options, or seed would silently
// corrupt the schedule.
type header struct {
	Kind    string `json:"kind"` // always "search-header"
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Arms    int    `json:"arms"`
	// Grid fingerprints the search: the hash of the canonical parameter
	// string plus every arm key in order.
	Grid string `json:"grid"`
}

const checkpointVersion = 1

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

// checkpoint streams records to a JSONL file, flushing after every line
// so an interrupted search loses at most one torn trailing line.
type checkpoint struct {
	f *os.File
	w *bufio.Writer
}

func createCheckpoint(path string, hd header) (*checkpoint, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("search: create checkpoint: %w", err)
	}
	cp := &checkpoint{f: f, w: bufio.NewWriter(f)}
	line, err := marshalLine(hd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := cp.w.Write(line); err != nil {
		f.Close()
		return nil, fmt.Errorf("search: write checkpoint header: %w", err)
	}
	if err := cp.flush(); err != nil {
		f.Close()
		return nil, err
	}
	return cp, nil
}

func (cp *checkpoint) flush() error {
	if err := cp.w.Flush(); err != nil {
		return fmt.Errorf("search: flush checkpoint: %w", err)
	}
	if err := cp.f.Sync(); err != nil {
		return fmt.Errorf("search: sync checkpoint: %w", err)
	}
	return nil
}

func (cp *checkpoint) append(rec Record) error {
	line, err := marshalLine(rec)
	if err != nil {
		return fmt.Errorf("search: marshal record %s/%s: %w", rec.Kind, rec.Arm, err)
	}
	if _, err := cp.w.Write(line); err != nil {
		return fmt.Errorf("search: write record %s/%s: %w", rec.Kind, rec.Arm, err)
	}
	return cp.flush()
}

func (cp *checkpoint) close() error {
	if err := cp.flush(); err != nil {
		cp.f.Close()
		return err
	}
	return cp.f.Close()
}

// loadCheckpoint reads a (possibly interrupted) checkpoint and returns
// the completed records in file order. It validates the header and
// tolerates exactly one torn trailing line (an interrupt mid-write),
// reported via truncateTo ≥ 0 — the byte offset the file must be
// truncated to before appending. Per-record schedule validation happens
// during replay, inside the engine.
func loadCheckpoint(path string, want header) (recs []Record, truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("search: read checkpoint: %w", err)
	}
	wantHeader, err := marshalLine(want)
	if err != nil {
		return nil, -1, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.Equal(data[:nl+1], wantHeader) {
		return nil, -1, fmt.Errorf("search: checkpoint %s does not match this search (header mismatch)", path)
	}
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
			return nil, -1, fmt.Errorf("search: checkpoint record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		offset += int64(nl + 1)
		rest = rest[nl+1:]
	}
	return recs, offset, nil
}

// resumeCheckpoint reopens path for appending after loadCheckpoint,
// truncating any torn trailing line first.
func resumeCheckpoint(path string, truncateTo int64) (*checkpoint, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("search: reopen checkpoint: %w", err)
	}
	if err := f.Truncate(truncateTo); err != nil {
		f.Close()
		return nil, fmt.Errorf("search: truncate torn checkpoint tail: %w", err)
	}
	if _, err := f.Seek(truncateTo, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("search: seek checkpoint: %w", err)
	}
	return &checkpoint{f: f, w: bufio.NewWriter(f)}, nil
}

// emitter sequences the deterministic record stream: a loaded replay
// prefix is consumed first (validated step by step against the
// schedule, its measured counts substituting for simulation), then
// fresh records are computed and appended. Because the replay prefix's
// bytes stay in the file untouched and every fresh record is a pure
// function of (params, seed), an interrupted-then-resumed checkpoint is
// byte-identical to an uninterrupted one.
type emitter struct {
	cp     *checkpoint // nil when checkpointing is off
	replay []Record
	pos    int
}

// step produces the next record in the schedule: the expected identity
// is (kind, arm, wave); compute simulates it fresh. Returns the record
// and whether it came from replay.
func (e *emitter) step(kind, arm string, wave int, compute func() (Record, error)) (Record, bool, error) {
	if e.pos < len(e.replay) {
		rec := e.replay[e.pos]
		if rec.Kind != kind || rec.Arm != arm || rec.Wave != wave {
			return Record{}, false, fmt.Errorf(
				"search: checkpoint record %d is (%s %s wave %d), schedule expects (%s %s wave %d) — stale or foreign checkpoint",
				e.pos, rec.Kind, rec.Arm, rec.Wave, kind, arm, wave)
		}
		// Replay trusts the recorded counts in place of simulation, so
		// they must partition exactly the runs the record adds.
		if !countsPartition(rec.Events, rec.Runs) {
			return Record{}, false, fmt.Errorf(
				"search: checkpoint record %d (%s %s wave %d) has event counts %v for %d runs — tampered checkpoint",
				e.pos, rec.Kind, rec.Arm, rec.Wave, rec.Events, rec.Runs)
		}
		e.pos++
		return rec, true, nil
	}
	rec, err := compute()
	if err != nil {
		return Record{}, false, err
	}
	if e.cp != nil {
		if err := e.cp.append(rec); err != nil {
			return Record{}, false, err
		}
	}
	return rec, false, nil
}

// countsPartition reports whether counts are non-negative and add up to
// exactly runs. Each count is checked against runs first, so the sum
// cannot overflow into a false match.
func countsPartition(counts [4]int64, runs int) bool {
	var sum int64
	for _, c := range counts {
		if c < 0 || c > int64(runs) {
			return false
		}
		sum += c
	}
	return sum == int64(runs)
}
