package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// cmdTrace dispatches the packed trace-store tooling: pack (generate a
// workload's trace into the segmented columnar on-disk format), info
// (header plus TOC/segment statistics) and cat (print a packed file in the
// text format).
func cmdTrace(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("trace needs a subcommand: pack, info or cat")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "pack":
		return cmdTracePack(rest, out)
	case "info":
		return cmdTracePackedInfo(rest, out)
	case "cat":
		return cmdTraceCat(ctx, rest, out)
	default:
		return fmt.Errorf("unknown trace subcommand %q (want pack, info or cat)", sub)
	}
}

func cmdTracePack(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace pack", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see 'list')")
	output := fs.String("o", "", "output file (required; written via temp file and rename)")
	segRefs := fs.Int("segment-refs", 0, "references per segment (0 = default)")
	repeat := fs.Int("repeat", 1, "pack N back-to-back generations — the scale knob for building traces far larger than memory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *output == "" {
		return fmt.Errorf("trace pack needs -workload and -o")
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	w, err := workload.Get(*name)
	if err != nil {
		return err
	}
	stats, err := tracestore.PackFile(*output, w.RepeatReader(*repeat), tracestore.WriterOptions{SegmentRefs: *segRefs})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "packed %s ×%d → %s\n", *name, *repeat, *output)
	fmt.Fprintf(out, "  %d refs (%d data, %d side), %d segments, %d bytes (%.2f bytes/ref)\n",
		stats.Refs, stats.DataRefs, stats.SideRefs, stats.Segments, stats.Bytes,
		float64(stats.Bytes)/float64(stats.Refs))
	fmt.Fprintf(out, "  toc sha256 %s\n", stats.TOCDigest)
	return nil
}

func cmdTracePackedInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace info", flag.ContinueOnError)
	segRows := fs.Int("segments", 16, "segment rows to print (-1 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace info needs exactly one packed trace file argument")
	}
	f, err := tracestore.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	segs := f.Segments()
	tb := report.NewTable("property", "value")
	tb.Rowf("format version", tracestore.FormatVersion)
	tb.Rowf("processors", f.Procs())
	tb.Rowf("refs", f.NumRefs())
	tb.Rowf("data refs", f.DataRefs())
	tb.Rowf("side refs", f.NumRefs()-f.DataRefs())
	tb.Rowf("segments", len(segs))
	tb.Rowf("segment target refs", f.SegmentTargetRefs())
	tb.Rowf("file bytes", f.Size())
	if f.NumRefs() > 0 {
		tb.Rowf("bytes/ref", fmt.Sprintf("%.2f", float64(f.Size())/float64(f.NumRefs())))
	}
	tb.Rowf("toc sha256", f.TOCDigest())
	tb.Fprint(out)

	n := len(segs)
	if *segRows >= 0 && n > *segRows {
		n = *segRows
	}
	if n == 0 {
		return nil
	}
	fmt.Fprintln(out)
	st := report.NewTable("segment", "offset", "payload", "refs", "data", "side", "minaddr", "maxaddr", "crc")
	for i, s := range segs[:n] {
		st.Rowf(i, s.Offset, s.PayloadLen, s.Refs, s.DataRefs, s.SideRefs,
			fmt.Sprintf("%#x", uint64(s.MinAddr)), fmt.Sprintf("%#x", uint64(s.MaxAddr)),
			fmt.Sprintf("%08x", s.CRC))
	}
	st.Fprint(out)
	if n < len(segs) {
		fmt.Fprintf(out, "… %d more segments (rerun with -segments -1 for all)\n", len(segs)-n)
	}
	return nil
}

func cmdTraceCat(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace cat", flag.ContinueOnError)
	output := fs.String("o", "", "output file for the text trace (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace cat needs exactly one packed trace file argument")
	}
	if *output == "" {
		return fmt.Errorf("trace cat needs -o")
	}
	r, err := tracestore.OpenReaderContext(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Create(*output)
	if err != nil {
		trace.CloseReader(r) //nolint:errcheck // error-path cleanup
		return err
	}
	if err := trace.WriteText(f, r); err != nil {
		f.Close() //nolint:errcheck // error-path cleanup
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*output)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d bytes)\n", *output, info.Size())
	return nil
}
