package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Parse reads a JSONL transcript back into lines.
func Parse(r io.Reader) ([]Line, error) {
	var lines []Line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l Line
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", len(lines)+1, err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return lines, nil
}

// FormatLine renders one transcript line as a human-readable log line.
func FormatLine(l Line) string {
	tag := fmt.Sprintf("[run %d]", l.Run)
	if l.Strategy != "" {
		tag = fmt.Sprintf("[run %d %s]", l.Run, l.Strategy)
	}
	switch l.Type {
	case "run_start":
		return fmt.Sprintf("%s ▶ %s n=%d inputs=%s", tag, l.Proto, l.Parties, l.Inputs)
	case "corrupt":
		if l.Round == 0 {
			return fmt.Sprintf("%s ✦ corrupt p%d (static)", tag, l.Party)
		}
		return fmt.Sprintf("%s ✦ corrupt p%d before round %d", tag, l.Party, l.Round)
	case "substitute":
		return fmt.Sprintf("%s ✦ p%d input %s → %s", tag, l.Party, l.Orig, l.Value)
	case "setup":
		if l.Aborted {
			return fmt.Sprintf("%s ✦ hybrid setup ABORTED", tag)
		}
		return fmt.Sprintf("%s hybrid setup ok", tag)
	case "round_start":
		return fmt.Sprintf("%s ── round %d ──", tag, l.Round)
	case "deliver":
		return fmt.Sprintf("%s r%-2d   p%d ← p%d  %s", tag, l.Round, l.Party, l.From, l.Payload)
	case "send":
		arrow, dst := "→", fmt.Sprintf("p%d", l.To)
		if l.Broadcast {
			arrow, dst = "⇒", "∗"
		}
		who := fmt.Sprintf("p%d", l.From)
		if l.Corrupt {
			who = "adv:" + who
		}
		return fmt.Sprintf("%s r%-2d   %s %s %s  %s", tag, l.Round, who, arrow, dst, l.Payload)
	case "round_end":
		return ""
	case "output":
		if !l.OK {
			return fmt.Sprintf("%s output p%d = ⊥", tag, l.Party)
		}
		return fmt.Sprintf("%s output p%d = %s", tag, l.Party, l.Value)
	case "run_end":
		return fmt.Sprintf("%s ■ rounds=%d corrupted=%d learned=%v breach=%v",
			tag, l.Rounds, l.Corrupted, l.Learned, l.Breach)
	default:
		return fmt.Sprintf("%s ? %s", tag, l.Type)
	}
}

// Fprint pretty-prints a JSONL transcript stream to w.
func Fprint(w io.Writer, r io.Reader) error {
	lines, err := Parse(r)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		s := FormatLine(l)
		if s == "" {
			continue
		}
		if _, err := fmt.Fprintln(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
