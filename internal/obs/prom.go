package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a registry in the Prometheus text exposition format
// (version 0.0.4), the payload behind the serving port's /metrics
// route. Mapping rules:
//
//   - Names are prefixed "uselessmiss_" and sanitized: every character
//     outside [a-zA-Z0-9_] becomes '_' ("trace.drive.refs" →
//     "uselessmiss_trace_drive_refs").
//   - Counters gain the conventional "_total" suffix.
//   - Histograms render cumulatively: one "_bucket" series per bound plus
//     the mandatory le="+Inf" bucket equal to "_count", then "_sum".
//   - Families are emitted in sorted name order with one # HELP and one
//     # TYPE line each, so the output is deterministic and parses under
//     any exposition-format consumer.

// promPrefix namespaces every exported metric family.
const promPrefix = "uselessmiss_"

// promName sanitizes a registry metric name into a Prometheus family name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(name))
	b.WriteString(promPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry's current values in the text
// exposition format. It snapshots through Report(), so the class split
// (deterministic vs timing) is invisible here — Prometheus consumers see
// one flat, sorted namespace.
func (r *Registry) WritePrometheus(w io.Writer) error {
	rep := r.Report()
	bw := bufio.NewWriter(w)

	counters := make(map[string]uint64, len(rep.Deterministic.Counters)+len(rep.Timings.Counters))
	for name, v := range rep.Deterministic.Counters {
		counters[name] = v
	}
	for name, v := range rep.Timings.Counters {
		counters[name] = v
	}
	for _, name := range sortedKeys(counters) {
		fam := promName(name) + "_total"
		writeFamilyHeader(bw, fam, "counter", name)
		bw.WriteString(fam)
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(counters[name], 10))
		bw.WriteByte('\n')
	}

	for _, name := range sortedKeys(rep.Timings.Gauges) {
		fam := promName(name)
		writeFamilyHeader(bw, fam, "gauge", name)
		bw.WriteString(fam)
		bw.WriteByte(' ')
		bw.WriteString(promFloat(rep.Timings.Gauges[name]))
		bw.WriteByte('\n')
	}

	hists := make(map[string]HistogramSnapshot, len(rep.Deterministic.Histograms)+len(rep.Timings.Histograms))
	for name, h := range rep.Deterministic.Histograms {
		hists[name] = h
	}
	for name, h := range rep.Timings.Histograms {
		hists[name] = h
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		fam := promName(name)
		writeFamilyHeader(bw, fam, "histogram", name)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			bw.WriteString(fam)
			bw.WriteString(`_bucket{le="`)
			bw.WriteString(promFloat(float64(bound)))
			bw.WriteString(`"} `)
			bw.WriteString(strconv.FormatUint(cum, 10))
			bw.WriteByte('\n')
		}
		// The overflow bucket closes the cumulative series at +Inf. Using
		// the bucket sum (not h.Count) keeps the series internally
		// consistent even on a torn concurrent snapshot.
		if len(h.Counts) > len(h.Bounds) {
			cum += h.Counts[len(h.Bounds)]
		}
		bw.WriteString(fam)
		bw.WriteString(`_bucket{le="+Inf"} `)
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
		bw.WriteString(fam)
		bw.WriteString("_sum ")
		bw.WriteString(strconv.FormatUint(h.Sum, 10))
		bw.WriteByte('\n')
		bw.WriteString(fam)
		bw.WriteString("_count ")
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}

	return bw.Flush()
}

func writeFamilyHeader(bw *bufio.Writer, fam, typ, source string) {
	bw.WriteString("# HELP ")
	bw.WriteString(fam)
	bw.WriteString(" Registry metric ")
	bw.WriteString(source)
	bw.WriteString(".\n# TYPE ")
	bw.WriteString(fam)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
