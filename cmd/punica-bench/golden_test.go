//go:build !race

// The goldens stay out of -race builds. Under the race detector these
// runs take ~50 s instead of ~5 s, and they would find nothing: at the
// flags used here no experiment starts a goroutine (scale shards across
// goroutines only above -parallel 1), and the concurrent code the
// experiments can reach is race-tested in its own packages. CI also runs
// them under -tags punica_invariants.

package main

import (
	"bytes"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// scaleArgs is the scale grid the goldens pin, and scaleColumns the
// columns of its CSV that do not depend on wall time.
var (
	scaleArgs    = []string{"-scale-gpus", "16,64", "-scale-requests", "10000", "scale"}
	scaleColumns = []string{"gpus", "requests", "cells", "cell", "events", "digest"}
)

// TestGoldens runs every simulated experiment in process at its default
// flags and compares its stdout, -csv and -json output byte for byte
// with testdata/. overload runs in wall time and is left out; scale is
// held to its event counts and digests only. Run with -update to
// rewrite the goldens after an intended output change.
func TestGoldens(t *testing.T) {
	var want []string // every golden file the subtests read
	for _, e := range table {
		switch e.name {
		case "overload":
			continue
		case "scale":
			want = append(want, "scale-events.csv")
			t.Run(e.name, func(t *testing.T) {
				t.Parallel()
				got := runGolden(t, e, scaleArgs)
				golden(t, "scale-events.csv", columns(t, got[".csv"], scaleColumns))
			})
			continue
		}
		exts := []string{".txt"}
		if e.csv {
			exts = append(exts, ".csv")
		}
		if e.records {
			exts = append(exts, ".json")
		}
		for _, ext := range exts {
			want = append(want, e.name+ext)
		}
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			got := runGolden(t, e, []string{e.name})
			for _, ext := range exts {
				golden(t, e.name+ext, got[ext])
			}
		})
	}

	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, f := range entries {
		have = append(have, f.Name())
	}
	slices.Sort(want)
	if !slices.Equal(have, want) && !*update {
		t.Errorf("testdata holds %v, want %v", have, want)
	}
}

// runGolden runs e in process with args, adding -csv and -json when e
// writes them, and returns its stdout and files by extension.
func runGolden(t *testing.T, e experiment, args []string) map[string][]byte {
	dir := t.TempDir()
	var flags []string
	if e.csv {
		flags = append(flags, "-csv", filepath.Join(dir, "out.csv"))
	}
	if e.records {
		flags = append(flags, "-json", filepath.Join(dir, "out.json"))
	}
	var stdout bytes.Buffer
	if err := run(append(flags, args...), &stdout); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{".txt": stdout.Bytes()}
	for _, ext := range []string{".csv", ".json"} {
		if b, err := os.ReadFile(filepath.Join(dir, "out"+ext)); err == nil {
			got[ext] = b
		}
	}
	return got
}

// columns keeps the named columns of a CSV, in the order named.
func columns(t *testing.T, data []byte, names []string) []byte {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil || len(rows) == 0 {
		t.Fatalf("reading CSV: %v (%d rows)", err, len(rows))
	}
	var idx []int
	for _, name := range names {
		i := slices.Index(rows[0], name)
		if i < 0 {
			t.Fatalf("CSV has no %q column: %v", name, rows[0])
		}
		idx = append(idx, i)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for _, row := range rows {
		var kept []string
		for _, i := range idx {
			kept = append(kept, row[i])
		}
		if err := w.Write(kept); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden; go test ./cmd/punica-bench -update rewrites it\n%s",
			name, firstDiff(want, got))
	}
}

// firstDiff shows the first line where got departs from want.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d:\nwant %q\n got %q", i+1, line(w, i), line(g, i))
}
