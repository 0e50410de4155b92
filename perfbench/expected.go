package main

import (
	"embed"
	"os"
	"path/filepath"
	"strings"
)

// expected holds the deterministic rows of each simulated workload at the
// default seed, one line per cell. Regenerate them with --pin after a change
// that is meant to move a figure.
//
//go:embed expected/*.txt
var expected embed.FS

// checkPinned compares a workload's rows at the default seed with the
// pinned ones, marking every differing row bad. With pinDir set (--pin) it
// writes the rows there instead.
func checkPinned(o *outcome, pinDir, name string, rows []string, bad []bool) {
	file := name + ".txt"
	if pinDir != "" {
		if err := os.WriteFile(filepath.Join(pinDir, file), []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			o.problem("pin %s: %v", name, err)
		}
		return
	}
	b, err := expected.ReadFile("expected/" + file)
	if err != nil {
		o.problem("%s: no pinned rows: %v", name, err)
		return
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(rows) {
		o.problem("%s: %d rows, %d pinned", name, len(rows), len(want))
	}
	for i, row := range rows {
		if i >= len(want) || row != want[i] {
			bad[i] = true
			pinned := "<none>"
			if i < len(want) {
				pinned = want[i]
			}
			o.problem("%s: row differs from the pinned row:\n  got  %s\n  want %s", name, row, pinned)
		}
	}
}
