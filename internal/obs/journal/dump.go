package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DumpFileName is where System.Recover drops the journal inside the WAL
// directory, so the timeline of what recovery found and did survives
// the process for post-mortems (dtarecover -events reads it back).
const DumpFileName = "events.jsonl"

// DumpFile writes every retained event as JSON lines (one Record per
// line, oldest first). Nil-safe: a nil journal writes an empty file.
func (j *Journal) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events, _, _ := j.Since(0, nil)
	recs := make([]Record, len(events))
	for i := range events {
		recs[i] = events[i].Record()
	}
	w := bufio.NewWriter(f)
	if err := writeDump(w, recs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeDump writes recs in the DumpFile format: one JSON object a line.
func writeDump(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadDump parses a DumpFile back into records.
func ReadDump(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeDump(data)
}

// decodeDump parses the bytes of a DumpFile: the records before the
// first one that does not decode, and why that one did not.
func decodeDump(data []byte) ([]Record, error) {
	var recs []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return recs, fmt.Errorf("journal: dump line %d: %w", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
