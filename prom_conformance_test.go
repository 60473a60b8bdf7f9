package hfsc_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	hfsc "github.com/netsched/hfsc"
)

// TestPrometheusExpositionConformance validates the full WriteMetrics
// output against the text exposition format (version 0.0.4): every line
// must parse, every sample must belong to a declared family, label values
// with quotes, backslashes and newlines must escape and round-trip,
// histogram le bounds must increase and buckets accumulate up to a
// le="+Inf" equal to _count with a _sum alongside — including the
// hfsc_guarantee_* families the auditor adds.
func TestPrometheusExpositionConformance(t *testing.T) {
	s := hfsc.New(hfsc.Config{
		LinkRate: 10 * hfsc.Mbps,
		Metrics:  true,
		Audit:    true,
	})
	// Class names exercising every escape the format defines.
	weird := []string{
		`plain`,
		`quo"ted`,
		`back\slash`,
		"new\nline",
		`all"three\of` + "\nthem",
	}
	rt, err := hfsc.ForRealTime(1000, 10*time.Millisecond, hfsc.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]*hfsc.Class, len(weird))
	for i, name := range weird {
		cfg := hfsc.ClassConfig{LinkShare: hfsc.Linear(hfsc.Mbps)}
		if i == 0 {
			cfg.RealTime = rt // one guaranteed class: margin/delay/bound series
		}
		if i == 1 {
			cfg.QueueLimit = 2 // one short queue: drops → attributed violations
		}
		c, err := s.AddClass(nil, name, cfg)
		if err != nil {
			t.Fatalf("AddClass(%q): %v", name, err)
		}
		classes[i] = c
	}
	now := int64(0)
	for i := 0; i < 50; i++ {
		for _, c := range classes {
			s.Offer(&hfsc.Packet{Len: 1000, Class: c.ID(), Arrival: now}, now)
		}
		for j := 0; j < len(classes); j++ {
			s.Dequeue(now)
		}
		now += 2_000_000
	}
	// Overdrive the short queue so hfsc_guarantee_violations_total has a
	// nonzero drop-attributed series.
	for i := 0; i < 10; i++ {
		s.Offer(&hfsc.Packet{Len: 1000, Class: classes[1].ID(), Arrival: now}, now)
	}

	var buf strings.Builder
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := validateExposition(t, text)

	// The escaped class names must round-trip through the label parser.
	for _, name := range weird {
		key := fmt.Sprintf("hfsc_guarantee_checks_total{class=%s}", promQuote(name))
		if _, ok := samples[key]; !ok {
			t.Errorf("no guarantee-checks sample for class %q\nwanted key %s", name, key)
		}
	}
	if strings.Contains(text, "\nline\"") {
		t.Error("raw newline leaked into a label value")
	}

	// The auditor's families must all be declared and populated.
	for _, fam := range []string{
		"hfsc_guarantee_checks_total",
		"hfsc_guarantee_violations_total",
		"hfsc_guarantee_margin_min_seconds",
		"hfsc_guarantee_delay_seconds",
		"hfsc_guarantee_burn_rate",
		"hfsc_guarantee_nonconforming_periods_total",
		"hfsc_guarantee_verdict",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s not declared", fam)
		}
	}
	// Every attribution cause appears as a label on the violations counter.
	for _, cause := range []string{"scheduler-late", "nonconforming-arrival", "ulimit-defer", "drop", "cost-correction"} {
		key := fmt.Sprintf("hfsc_guarantee_violations_total{class=%s,cause=%q}", promQuote(weird[0]), cause)
		if _, ok := samples[key]; !ok {
			t.Errorf("violations counter missing cause %q", cause)
		}
	}
	dropKey := fmt.Sprintf("hfsc_guarantee_violations_total{class=%s,cause=\"drop\"}", promQuote(weird[1]))
	if samples[dropKey] == 0 {
		t.Errorf("overdriven class has no drop-attributed violations (%s)", dropKey)
	}
	marginKey := fmt.Sprintf("hfsc_guarantee_margin_min_seconds{class=%s}", promQuote(weird[0]))
	if _, ok := samples[marginKey]; !ok {
		t.Errorf("guaranteed class has no margin gauge (%s)", marginKey)
	}
}

// promQuote renders a label value with the exposition format's escaping
// (backslash, double-quote, newline), normalized the way the validator's
// parser re-serializes it.
func promQuote(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// validateExposition is a strict parser for the 0.0.4 text format. It
// returns every sample keyed by name{labels} (labels re-serialized in
// declaration order with promQuote escaping), failing the test on any
// malformed line, undeclared family, duplicate sample, non-cumulative
// histogram, or a histogram without matching _sum/_count.
func validateExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	type histKey struct{ name, labels string }
	lastCum := map[histKey]uint64{}
	lastLe := map[histKey]float64{}
	sawInf := map[histKey]bool{}
	sawSum := map[histKey]bool{}

	var curFamily string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			curFamily = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[0] != curFamily {
				t.Fatalf("line %d: TYPE %q does not follow its HELP (current family %q)", ln+1, parts[0], curFamily)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value := parseSampleLine(t, ln+1, line)
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		typ, ok := types[base]
		if !ok {
			t.Fatalf("line %d: sample %q has no TYPE declaration", ln+1, name)
		}
		if typ == "counter" && v < 0 {
			t.Fatalf("line %d: negative counter %q = %v", ln+1, name, v)
		}
		var restLabels []string
		le := ""
		for _, l := range labels {
			if typ == "histogram" && strings.HasSuffix(name, "_bucket") && l.key == "le" {
				le = l.value
				continue
			}
			restLabels = append(restLabels, l.key+"="+promQuote(l.value))
		}
		rest := strings.Join(restLabels, ",")
		if typ == "histogram" {
			k := histKey{base, rest}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				cum := uint64(v)
				if cum < lastCum[k] {
					t.Fatalf("line %d: histogram %v not cumulative at le=%q", ln+1, k, le)
				}
				if sawInf[k] {
					t.Fatalf("line %d: histogram %v has buckets after le=+Inf", ln+1, k)
				}
				if le == "+Inf" {
					sawInf[k] = true
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("line %d: bad le bound %q: %v", ln+1, le, err)
					}
					if prev, ok := lastLe[k]; ok && bound <= prev {
						t.Fatalf("line %d: histogram %v le bounds not increasing: %v after %v", ln+1, k, bound, prev)
					}
					lastLe[k] = bound
				}
				lastCum[k] = cum
			case strings.HasSuffix(name, "_sum"):
				sawSum[k] = true
			}
		}
		key := name + "{" + rest + "}"
		if le != "" {
			key = name + "{" + rest + ",le=" + promQuote(le) + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %s", ln+1, key)
		}
		samples[key] = v
	}
	for k := range lastCum {
		if !sawInf[k] {
			t.Fatalf("histogram %v missing le=+Inf bucket", k)
		}
		if !sawSum[k] {
			t.Fatalf("histogram %v missing _sum", k)
		}
		countKey := k.name + "_count{" + k.labels + "}"
		if c, ok := samples[countKey]; !ok || uint64(c) != lastCum[k] {
			t.Fatalf("histogram %v: +Inf bucket %d != _count %v", k, lastCum[k], samples[countKey])
		}
	}
	return samples
}

type promLabel struct{ key, value string }

// parseSampleLine splits one sample line into metric name, parsed labels
// (escape sequences decoded) and the value text, enforcing the format's
// lexical rules.
func parseSampleLine(t *testing.T, ln int, line string) (string, []promLabel, string) {
	t.Helper()
	name := line
	var labels []promLabel
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		s := line[i+1:]
		for {
			s = strings.TrimLeft(s, " ,")
			if len(s) > 0 && s[0] == '}' {
				rest = s[1:]
				break
			}
			eq := strings.IndexByte(s, '=')
			if eq < 0 {
				t.Fatalf("line %d: label without '=': %q", ln, line)
			}
			key := s[:eq]
			s = s[eq+1:]
			if len(s) == 0 || s[0] != '"' {
				t.Fatalf("line %d: unquoted label value: %q", ln, line)
			}
			s = s[1:]
			var val strings.Builder
			for {
				if len(s) == 0 {
					t.Fatalf("line %d: unterminated label value: %q", ln, line)
				}
				c := s[0]
				if c == '"' {
					s = s[1:]
					break
				}
				if c == '\n' {
					t.Fatalf("line %d: raw newline inside label value: %q", ln, line)
				}
				if c == '\\' {
					if len(s) < 2 {
						t.Fatalf("line %d: dangling escape: %q", ln, line)
					}
					switch s[1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: invalid escape \\%c", ln, s[1])
					}
					s = s[2:]
					continue
				}
				val.WriteByte(c)
				s = s[1:]
			}
			labels = append(labels, promLabel{key, val.String()})
		}
	} else if j := strings.IndexByte(line, ' '); j >= 0 {
		name, rest = line[:j], line[j:]
	}
	for _, c := range name {
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			t.Fatalf("line %d: invalid metric name %q", ln, name)
		}
	}
	value := strings.TrimSpace(rest)
	if i := strings.IndexByte(value, ' '); i >= 0 {
		value = value[:i] // optional timestamp after the value
	}
	if value == "" {
		t.Fatalf("line %d: sample without value: %q", ln, line)
	}
	return name, labels, value
}
