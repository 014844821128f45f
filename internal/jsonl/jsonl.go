// Package jsonl is the checkpoint stream the sweep and the search share:
// a JSONL file whose first line is a header naming the run, followed by
// one record per line. Every line reaches the disk (write, then Sync)
// before the next is produced, so an interrupted run loses at most one
// torn trailing line, and a resume truncates that line away and appends
// after the last complete record.
//
// Each engine keeps its own header and record types and its own record
// validation; the name it passes ("sweep", "search") prefixes every
// error, so messages read the same whichever engine wrote the file.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Line renders one checkpoint line. json.Marshal over fixed struct
// shapes is deterministic (field order is declaration order), so equal
// values give equal bytes.
func Line(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Writer appends lines to an open checkpoint file.
type Writer struct {
	name string
	f    *os.File
}

// Open opens the checkpoint at path for appending. An existing file is
// loaded with Load (same header and check) and resumed after its last
// complete record, cutting a torn trailing line away first; the loaded
// records are returned. A file that does not exist is created with the
// header as its first line. A file that exists but fails Load is an
// error, never overwritten.
func Open[R any](path, name string, header any, check func(i int, rec R) error) (*Writer, []R, error) {
	if _, err := os.Stat(path); err != nil {
		w, err := create(path, name, header)
		return w, nil, err
	}
	recs, truncateTo, err := Load(path, name, header, check)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: reopen checkpoint: %w", name, err)
	}
	if err := f.Truncate(truncateTo); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: truncate torn checkpoint tail: %w", name, err)
	}
	if _, err := f.Seek(truncateTo, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: seek checkpoint: %w", name, err)
	}
	return &Writer{name: name, f: f}, recs, nil
}

func create(path, name string, header any) (*Writer, error) {
	line, err := Line(header)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: create checkpoint: %w", name, err)
	}
	w := &Writer{name: name, f: f}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: write checkpoint header: %w", name, err)
	}
	if err := w.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%s: sync checkpoint: %w", w.name, err)
	}
	return nil
}

// Append writes rec as one line and syncs it to disk. id names the
// record in errors.
func (w *Writer) Append(rec any, id string) error {
	line, err := Line(rec)
	if err != nil {
		return fmt.Errorf("%s: marshal record %s: %w", w.name, id, err)
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("%s: write record %s: %w", w.name, id, err)
	}
	return w.sync()
}

// Close closes the file. Every line is already on disk.
func (w *Writer) Close() error { return w.f.Close() }

// Load reads a checkpoint that may have been interrupted and returns its
// complete records in file order. The first line must equal the rendered
// header exactly: a file from another run is refused before any record
// is trusted. Each complete line after it decodes into an R and is
// passed to check with its index (a nil check accepts every record). A
// final line with no newline is a torn write and is dropped; truncateTo
// is the byte offset the file must be cut to before appending. A
// complete line that does not decode is corruption, not a tear, and is
// an error.
func Load[R any](path, name string, header any, check func(i int, rec R) error) (recs []R, truncateTo int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("%s: read checkpoint: %w", name, err)
	}
	want, err := Line(header)
	if err != nil {
		return nil, -1, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.Equal(data[:nl+1], want) {
		return nil, -1, fmt.Errorf("%s: checkpoint %s does not match this %s (header mismatch)", name, path, name)
	}
	offset := int64(nl + 1)
	rest := data[nl+1:]
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// End of file, or a torn trailing line: resume by truncating
			// it away and producing its record again.
			return recs, offset, nil
		}
		var rec R
		if err := json.Unmarshal(rest[:nl+1], &rec); err != nil {
			return nil, -1, fmt.Errorf("%s: checkpoint record %d: %w", name, len(recs), err)
		}
		if check != nil {
			if err := check(len(recs), rec); err != nil {
				return nil, -1, err
			}
		}
		recs = append(recs, rec)
		offset += int64(nl + 1)
		rest = rest[nl+1:]
	}
}
