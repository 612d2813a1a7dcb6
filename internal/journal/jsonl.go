package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
)

// EncodeJSONL writes events as JSON Lines: one JSON object per event,
// newline-terminated. The format is the journal's persistence and wire
// shape — append-friendly, greppable, and decodable line by line.
func EncodeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("journal: encode seq %d: %w", ev.Seq, err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MarshalJSONL renders events to a JSONL byte slice.
func MarshalJSONL(events []Event) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeJSONL parses a JSONL journal. Blank lines are skipped; a
// malformed line is an error naming its 1-based line number. The decoder
// never panics on arbitrary input (FuzzJournalDecode holds it to that).
func DecodeJSONL(data []byte) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: scan: %w", err)
	}
	return events, nil
}

// KeyClass is the artifact-store class of encoded journals: the prefix of
// every Key.
const KeyClass = "jr"

// Key returns the content-addressed artifact-store key for an encoded
// journal: KeyClass + ":" + SHA-256 of the JSONL bytes. Events carry no
// run-dependent data, so two runs that record the same events get the
// same Key, and the store keeps one entry for both.
func Key(data []byte) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s:%x", KeyClass, sum)
}
