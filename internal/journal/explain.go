package journal

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RenderOptions configures Render.
type RenderOptions struct {
	// All includes nondeterministic and verbose-class events. The default
	// (false) renders only deterministic events, which makes the output
	// byte-identical across symex worker counts for the same pair and
	// configuration.
	All bool
}

// Render formats a journal as an indented human-readable narrative:
// events grouped under phase headers, attributes sorted by key, with the
// terminal verdict (or error) on an unindented closing line. Seqs and
// evidence links are never rendered, so a journal decoded from its JSONL
// artifact renders byte-identically to the live Recorder's.
func Render(events []Event, o RenderOptions) string {
	var b strings.Builder
	phase := ""
	for _, ev := range events {
		spec, known := registry[ev.Type]
		if !o.All && !(known && spec.Det) {
			continue
		}
		switch ev.Type {
		case EvVerdict:
			renderVerdict(&b, ev)
			continue
		case EvJobError:
			fmt.Fprintf(&b, "error: %s\n", str(ev.Attrs, "err"))
			continue
		}
		p := spec.Phase
		if !known {
			p = "unknown"
		}
		if p != phase {
			phase = p
			fmt.Fprintf(&b, "%s:\n", p)
		}
		line := fmt.Sprintf("  %-22s%s", string(ev.Type), attrString(ev.Attrs))
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// renderVerdict writes the closing line: "verdict: triggered (Type-I)"
// with the reason appended when one was recorded.
func renderVerdict(b *strings.Builder, ev Event) {
	fmt.Fprintf(b, "verdict: %s (%s)", str(ev.Attrs, "verdict"), str(ev.Attrs, "type"))
	if r := str(ev.Attrs, "reason"); r != "" {
		fmt.Fprintf(b, " — %s", r)
	}
	b.WriteByte('\n')
}

// attrString renders attributes sorted by key as " k=v k=v". The
// "evidence" attribute (seq links) is never rendered.
func attrString(attrs Attrs) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		if k == "evidence" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(" ")
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(fmtVal(attrs[k]))
	}
	return b.String()
}

// fmtVal formats one attribute value so live and JSONL-decoded journals
// render identically: integral float64s (the shape json.Unmarshal gives
// every number) print as integers, and composites go through
// json.Marshal, which normalizes numeric types the same way.
func fmtVal(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case uint32:
		return strconv.FormatUint(uint64(x), 10)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		return string(b)
	}
}

// str returns attrs[k] as a string ("" when absent or not a string).
func str(attrs Attrs, k string) string {
	s, _ := attrs[k].(string)
	return s
}
