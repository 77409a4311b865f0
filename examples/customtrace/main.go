// Customtrace shows the trace tooling end to end: generate a custom
// workload with explicit parameters, pack it into a binary trace file,
// reload it, and verify that classifying the file gives the same answer as
// classifying the live stream. The same file format is what the
// 'uselessmiss trace pack' and 'uselessmiss classify -trace' commands use.
package main

import (
	"bytes"
	"fmt"
	"log"

	uselessmiss "repro"
)

func main() {
	// A scaled-down WATER run: 32 molecules, 2 time steps, 8 processors.
	w := uselessmiss.Water(32, 2, 8)
	fmt.Println(w.Description)

	// Pack the trace (into a file in real use).
	var buf bytes.Buffer
	if err := uselessmiss.Pack(&buf, w.Reader()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packed trace: %d bytes\n", buf.Len())
	reload := func() uselessmiss.Reader {
		r, err := uselessmiss.OpenPacked(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Reload and characterize it.
	r := reload()
	stats := uselessmiss.NewStats(r.NumProcs(), true)
	if err := uselessmiss.Drive(r, stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded: %d loads, %d stores, %d sync ops, %d KB touched, speedup %.1f\n",
		stats.Loads, stats.Stores, stats.SyncRefs(), stats.DataSetBytes()/1024, stats.Speedup())

	// Classify both the file and a fresh generation; they must agree.
	g := uselessmiss.MustGeometry(64)
	fromFile, _, err := uselessmiss.Classify(reload(), g)
	if err != nil {
		log.Fatal(err)
	}
	fromLive, _, err := uselessmiss.Classify(w.Reader(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classification from file: %+v\n", fromFile)
	if fromFile != fromLive {
		log.Fatalf("file and live classification disagree: %+v vs %+v", fromFile, fromLive)
	}
	fmt.Println("file and live classification agree")
}
