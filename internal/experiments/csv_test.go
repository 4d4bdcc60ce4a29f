package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"punica/internal/hw"
	"punica/internal/models"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	return rows
}

func TestFig1CSV(t *testing.T) {
	points := Fig1(hw.A100(), models.Llama2_7B())
	var b strings.Builder
	if err := Fig1Report(points).CSV(&b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, b.String())
	if len(rows) != len(points)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(points)+1)
	}
	if rows[0][0] != "seq_len" || len(rows[1]) != 4 {
		t.Fatalf("header/shape wrong: %v", rows[0])
	}
}

func TestMicrobenchCSVs(t *testing.T) {
	var b strings.Builder
	if err := Fig7Report(Fig7()).CSV(&b); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, b.String()); rows[0][2] != "intensity" {
		t.Fatal("fig7 header wrong")
	}
	b.Reset()
	if err := Fig8Report(Fig8()).CSV(&b); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, b.String()); len(rows[0]) != 7 {
		t.Fatal("fig8 header wrong")
	}
	b.Reset()
	if err := Fig9Report(Fig9()).CSV(&b); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, b.String()); rows[0][0] != "rank" {
		t.Fatal("fig9 header wrong")
	}
	b.Reset()
	if err := Fig10Report(Fig10()).CSV(&b); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, b.String()); rows[0][0] != "model" {
		t.Fatal("fig10 header wrong")
	}
}

func TestFig11CSV(t *testing.T) {
	rows11, err := Fig11(models.Llama2_7B(), TextGenOptions{NumRequests: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Fig11Report("fig11", "", rows11).CSV(&b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, b.String())
	if len(rows) != 21 { // header + 5 systems x 4 dists
		t.Fatalf("%d rows", len(rows))
	}
}

func TestFig13CSV(t *testing.T) {
	res, err := Fig13(Fig13Options{
		NumGPUs: 2, Peak: 2,
		RampUp: time.Minute, Hold: 30 * time.Second, RampDown: time.Minute,
		BinWidth: 30 * time.Second, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Fig13Report(res).CSV(&b); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, b.String())
	if len(rows) < 3 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	// header: minute,req_per_s,tok_per_s,busy_gpus + 2 GPU columns.
	if len(rows[0]) != 6 {
		t.Fatalf("header has %d cols, want 6: %v", len(rows[0]), rows[0])
	}
}
