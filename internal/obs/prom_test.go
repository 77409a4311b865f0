package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promLine matches one exposition sample: a metric name, an optional
// {le="..."} label set (the only labels we emit), and a value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)$`)

// TestWritePrometheusConformance checks the text output against the
// exposition-format rules a scraper relies on: legal names, HELP/TYPE
// before samples, counters suffixed _total, histograms with cumulative
// buckets ending at +Inf where _bucket{+Inf} == _count.
func TestWritePrometheusConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("trace.drive.refs").Add(123)
	reg.TimingCounter("tracestore.segment_read_ns").Add(456)
	reg.Gauge("run.refs_per_sec").Set(1.5e6)
	h := reg.TimingHistogram("tracestore.readahead.occupancy", []uint64{0, 1, 2, 3})
	for _, v := range []uint64{0, 0, 1, 3, 4, 9} { // 9 and 4 overflow
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	typed := map[string]string{}   // family -> type
	values := map[string]float64{} // full sample key -> value
	var families []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if _, dup := typed[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			typed[parts[2]] = parts[3]
			families = append(families, parts[2])
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = v
		// Every sample must belong to a family that already declared TYPE.
		fam := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); base != fam && typed[base] == "histogram" {
				fam = base
				break
			}
		}
		if _, ok := typed[fam]; !ok {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
	}

	// Families emit sorted within each class (counters, then gauges, then
	// histograms), and a second render is byte-identical — the output is
	// deterministic for diffing.
	if typ := func() []string {
		var counters []string
		for _, f := range families {
			if typed[f] == "counter" {
				counters = append(counters, f)
			}
		}
		return counters
	}(); !sort.StringsAreSorted(typ) {
		t.Errorf("counter families not sorted: %v", typ)
	}
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("two renders of an unchanged registry differ")
	}
	if typ := typed["uselessmiss_trace_drive_refs_total"]; typ != "counter" {
		t.Errorf("deterministic counter type = %q", typ)
	}
	if typ := typed["uselessmiss_tracestore_segment_read_ns_total"]; typ != "counter" {
		t.Errorf("timing counter type = %q", typ)
	}
	if typ := typed["uselessmiss_run_refs_per_sec"]; typ != "gauge" {
		t.Errorf("gauge type = %q", typ)
	}
	if typ := typed["uselessmiss_tracestore_readahead_occupancy"]; typ != "histogram" {
		t.Errorf("histogram type = %q", typ)
	}

	if v := values["uselessmiss_trace_drive_refs_total"]; v != 123 {
		t.Errorf("counter value = %v, want 123", v)
	}
	if v := values["uselessmiss_run_refs_per_sec"]; v != 1.5e6 {
		t.Errorf("gauge value = %v, want 1.5e6", v)
	}

	// Histogram: cumulative buckets, monotone, +Inf == _count, sum exact.
	hist := "uselessmiss_tracestore_readahead_occupancy"
	var prev float64
	for _, le := range []string{"0", "1", "2", "3", "+Inf"} {
		key := fmt.Sprintf(`%s_bucket{le="%s"}`, hist, le)
		v, ok := values[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket le=%s count %v < previous %v (not cumulative)", le, v, prev)
		}
		prev = v
	}
	if inf := values[hist+`_bucket{le="+Inf"}`]; inf != values[hist+"_count"] {
		t.Errorf("+Inf bucket %v != _count %v", inf, values[hist+"_count"])
	}
	if values[hist+"_count"] != 6 {
		t.Errorf("_count = %v, want 6", values[hist+"_count"])
	}
	if values[hist+"_sum"] != 17 {
		t.Errorf("_sum = %v, want 17", values[hist+"_sum"])
	}
	if values[hist+`_bucket{le="0"}`] != 2 {
		t.Errorf("le=0 bucket = %v, want 2", values[hist+`_bucket{le="0"}`])
	}
	if values[hist+`_bucket{le="3"}`] != 4 {
		t.Errorf("le=3 bucket = %v, want 4", values[hist+`_bucket{le="3"}`])
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"trace.drive.refs":       "uselessmiss_trace_drive_refs",
		"sweep.cache.hits":       "uselessmiss_sweep_cache_hits",
		"weird-name with spaces": "uselessmiss_weird_name_with_spaces",
		"already_legal_1":        "uselessmiss_already_legal_1",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
