package search

import (
	"fmt"

	"repro/internal/jsonl"
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

// emitter sequences the deterministic record stream: a loaded replay
// prefix is consumed first (validated step by step against the
// schedule, its measured counts substituting for simulation), then
// fresh records are computed and appended. Because the replay prefix's
// bytes stay in the file untouched and every fresh record is a pure
// function of (params, seed), an interrupted-then-resumed checkpoint is
// byte-identical to an uninterrupted one.
type emitter struct {
	cp     *jsonl.Writer // nil when checkpointing is off
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
		if err := e.cp.Append(rec, rec.Kind+"/"+rec.Arm); err != nil {
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
