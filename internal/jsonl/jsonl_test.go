package jsonl_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsonl"
)

// FuzzLoad feeds arbitrary bytes after a valid header to the shared
// loader. It must never panic, and every error carries the caller's
// prefix. An accepted load returns one record per complete line and a
// truncation offset that ends a line inside the file. The same bytes
// without the header are refused unless they begin with it.
func FuzzLoad(f *testing.F) {
	hd := struct {
		Kind string `json:"kind"`
		Seed int64  `json:"seed"`
	}{Kind: "fuzz-header", Seed: 7}
	line, err := jsonl.Line(hd)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("{\"a\":1}\n{\"a\":2}\n"))
	f.Add([]byte("{\"a\":1}\n{\"a\":"))
	f.Add([]byte("{\"a\":1}\n{\"a\":2}"))
	f.Add([]byte("{\"a\":1\n{\"a\":2}\n"))
	f.Add(append(append([]byte{}, line...), "{\"a\":1}\n"...))
	f.Add(append(append([]byte{}, line[:len(line)-1]...), " \n"...))
	f.Fuzz(func(t *testing.T, records []byte) {
		dir := t.TempDir()
		data := append(append([]byte{}, line...), records...)
		path := filepath.Join(dir, "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, truncateTo, err := jsonl.Load[json.RawMessage](path, "fuzz", hd, nil)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fuzz: ") {
				t.Fatalf("error %q lacks the caller's prefix", err)
			}
		} else {
			if truncateTo < int64(len(line)) || truncateTo > int64(len(data)) {
				t.Fatalf("truncateTo %d outside [%d, %d]", truncateTo, len(line), len(data))
			}
			if data[truncateTo-1] != '\n' {
				t.Fatalf("truncateTo %d does not follow a newline", truncateTo)
			}
			if n := bytes.Count(records, []byte("\n")); len(recs) != n {
				t.Fatalf("accepted %d records from %d complete lines", len(recs), n)
			}
		}

		foreign := filepath.Join(dir, "foreign.jsonl")
		if err := os.WriteFile(foreign, records, 0o644); err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(records, line) {
			return
		}
		if _, _, err := jsonl.Load[json.RawMessage](foreign, "fuzz", hd, nil); err == nil ||
			!strings.Contains(err.Error(), "header mismatch") {
			t.Fatalf("foreign first line: err = %v, want header mismatch", err)
		}
	})
}
