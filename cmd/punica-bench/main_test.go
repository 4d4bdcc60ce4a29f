package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"punica/internal/experiments"
)

// TestRefusedOutputFlags: output flags an experiment cannot honour fail
// before anything runs, instead of writing a wrong file or none.
func TestRefusedOutputFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		// Every experiment of all would overwrite the same CSV, leaving
		// only the last one's.
		{"csv-with-all", []string{"-csv", "x.csv", "-json", "x.json", "all"}, "-csv: all"},
		{"csv-without-csv-output", []string{"-csv", "y.csv", "fig6"}, "-csv: fig6"},
		{"json-without-records", []string{"-json", "z.json", "headline"}, "-json: headline"},
		{"check-without-gate", []string{"-check", "../../bench/BENCH_scale.json", "fig6"}, "-check: fig6"},
		{"check-with-all", []string{"-check", "../../bench/BENCH_scale.json", "all"}, "-check: all"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string(nil), tc.args...)
			for i := 1; i < len(args); i++ {
				if args[i-1] == "-csv" || args[i-1] == "-json" {
					args[i] = filepath.Join(dir, args[i])
				}
			}
			var stdout bytes.Buffer
			err := run(args, &stdout)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("an experiment ran before the refusal:\n%s", stdout.String())
			}
			if written, _ := os.ReadDir(dir); len(written) != 0 {
				t.Errorf("files were written: %v", written)
			}
		})
	}
}

// TestCheckGate: the coldstart gate passes on its committed record,
// fails once a gated metric in the baseline is raised past its bound,
// and fails, instead of passing vacuously, against a record it shares
// no row with.
func TestCheckGate(t *testing.T) {
	const committed = "../../bench/BENCH_coldstart.json"
	f, err := os.Open(committed)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := experiments.ReadBenchJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	raised := 0
	for _, r := range recs {
		if v, ok := r.Metrics["cold_p99_gain"]; ok {
			r.Metrics["cold_p99_gain"] = v * 1.3 // past the 20% bound: v/1.3 < 0.8 v
			raised++
		}
	}
	if raised == 0 {
		t.Fatal("committed baseline has no cold_p99_gain")
	}
	var buf bytes.Buffer
	if err := experiments.WriteBenchJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raisedPath := filepath.Join(t.TempDir(), "raised.json")
	if err := os.WriteFile(raisedPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		baseline string
		want     string // "" for a pass
	}{
		{committed, ""},
		{raisedPath, "cold_p99_gain regressed"},
		{"../../bench/BENCH_traffic.json", "no row"},
	} {
		err := run([]string{"-check", tc.baseline, "coldstart"}, &bytes.Buffer{})
		if tc.want == "" && err != nil {
			t.Errorf("-check %s: %v", tc.baseline, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-check %s: got %v, want a failure naming %q", tc.baseline, err, tc.want)
		}
	}
}
