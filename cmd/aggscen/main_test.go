package main

import (
	"context"
	"strings"
	"testing"
)

// TestCompareTable runs the command in this process: -compare prints one
// header and one simulator row per scenario on stdout.
func TestCompareTable(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-compare", "partition-heal,partition-stall", "-n", "48", "-log", "error"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "scenario ") ||
		!strings.HasPrefix(lines[1], "partition-heal ") || !strings.HasPrefix(lines[2], "partition-stall ") {
		t.Fatalf("compare table:\n%s", out.String())
	}
	for _, row := range lines[1:] {
		if fields := strings.Fields(row); len(fields) < 3 || fields[1] != "sim" || fields[2] != "48" {
			t.Errorf("row %q: want executor sim at n 48", row)
		}
	}
}
