package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// resultsDir is the tracked results/ directory, seen from this package.
const resultsDir = "../../results"

// TestResultsCurrent is the guard on results/: every artefact whose output
// is a pure function of the scale is rendered at full scale and compared
// byte for byte with the committed file, so a change that moves a number
// cannot leave results/ — and EXPERIMENTS.md, which quotes it — behind.
func TestResultsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale evaluation (about 8 s)")
	}
	for _, a := range artefacts {
		if a.timed {
			// Wall-clock numbers differ run to run; the committed file need
			// only say what regime it was taken in.
			got, err := os.ReadFile(filepath.Join(resultsDir, a.name+".txt"))
			if err != nil {
				t.Errorf("%v (run `make results`)", err)
			} else if !bytes.Contains(got, []byte("\nregime: ")) {
				t.Errorf("results/%s.txt carries no regime line", a.name)
			}
			continue
		}
		text, csv, err := a.render(1.0)
		if err != nil {
			t.Errorf("%s: %v", a.name, err)
			continue
		}
		compareWithResults(t, a.name+".txt", text)
		if a.hasCSV {
			compareWithResults(t, a.name+".csv", csv)
		}
	}
	if t.Failed() {
		t.Log("results/ is stale: run `make results`, commit it, and re-read EXPERIMENTS.md against the new files — it quotes them")
	}
}

// compareWithResults fails with the first line at which the committed
// results file and the fresh rendering differ.
func compareWithResults(t *testing.T, file string, fresh []byte) {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join(resultsDir, file))
	if err != nil {
		t.Errorf("%v (run `make results`)", err)
		return
	}
	if bytes.Equal(committed, fresh) {
		return
	}
	old, cur := strings.Split(string(committed), "\n"), strings.Split(string(fresh), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of file>"
	}
	for i := 0; ; i++ {
		if line(old, i) != line(cur, i) {
			t.Errorf("results/%s:%d differs from what this tree produces\n--- results/%s (committed)\n+++ jouleguard %s\n@@ line %d @@\n-%s\n+%s",
				file, i+1, file, strings.TrimSuffix(file, filepath.Ext(file)), i+1, line(old, i), line(cur, i))
			return
		}
	}
}

// TestReplicateWritesEveryArtefact runs the whole table at the smallest
// scale: every row must render, and replicate must write exactly one
// .txt per row and one .csv per row that has a CSV form.
func TestReplicateWritesEveryArtefact(t *testing.T) {
	dir := t.TempDir()
	if err := replicate(dir, 0.05, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, a := range artefacts {
		want = append(want, a.name+".txt")
		if a.hasCSV {
			want = append(want, a.name+".csv")
		}
	}
	sort.Strings(want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
		if info, err := e.Info(); err != nil || info.Size() == 0 {
			t.Errorf("%s is empty (%v)", e.Name(), err)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replicate wrote %v, want %v", got, want)
	}
}

// TestDispatcherRejectsStrayArguments pins the exit status: an unknown
// artefact, a stray word or a CSV request the artefact cannot serve must
// exit 2 and list the valid names, never fall through to a default run.
func TestDispatcherRejectsStrayArguments(t *testing.T) {
	for _, args := range [][]string{
		{"fig9"},
		{"fig1", "quick"},
		{"-app", "radar", "quick"},
		{"table2", "-csv"},
		{"replicate", "results"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("jouleguard %v: exit status %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), strings.Join(artefactNames(), " ")) {
			t.Errorf("jouleguard %v: stderr does not list the artefacts:\n%s", args, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("jouleguard %v: ran anyway:\n%s", args, stdout.String())
		}
	}
}
