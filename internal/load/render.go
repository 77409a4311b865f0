package load

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/report"
)

// Fprint renders the run as the load subcommand's report: a summary table
// plus a per-status/per-code breakdown, in the repo's table idiom.
func (r *Report) Fprint(out io.Writer, csv bool) error {
	tb := report.NewTable("metric", "value")
	tb.Rowf("mode", r.Mode)
	tb.Rowf("distribution", r.Dist)
	tb.Rowf("offered_rps", fmt.Sprintf("%.1f", r.OfferedRPS))
	tb.Rowf("elapsed_s", fmt.Sprintf("%.2f", r.Elapsed.Seconds()))
	tb.Rowf("sent", r.Sent)
	tb.Rowf("ok", r.OK)
	tb.Rowf("dropped_client", r.Dropped)
	tb.Rowf("jobs_per_sec", fmt.Sprintf("%.2f", r.JobsPerSec))
	tb.Rowf("refs_per_sec", fmt.Sprintf("%.0f", r.RefsPerSec))
	tb.Rowf("p50_ms", fmt.Sprintf("%.1f", float64(r.P50.Microseconds())/1000))
	tb.Rowf("p99_ms", fmt.Sprintf("%.1f", float64(r.P99.Microseconds())/1000))
	if csv {
		if err := tb.CSV(out); err != nil {
			return err
		}
	} else {
		tb.Fprint(out)
	}

	if len(r.Statuses) == 0 && len(r.Codes) == 0 {
		return nil
	}
	bd := report.NewTable("kind", "key", "count")
	for _, s := range sortedIntKeys(r.Statuses) {
		bd.Rowf("status", strconv.Itoa(s), r.Statuses[s])
	}
	for _, c := range sortedStrKeys(r.Codes) {
		bd.Rowf("code", c, r.Codes[c])
	}
	if csv {
		return bd.CSV(out)
	}
	fmt.Fprintln(out)
	bd.Fprint(out)
	return nil
}

func sortedIntKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sortedStrKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
