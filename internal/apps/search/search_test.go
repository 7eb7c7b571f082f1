package search

import (
	"testing"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCapTruncatesRanking(t *testing.T) {
	e := newEngine(t)
	for q := 0; q < 10; q++ {
		all, _ := e.answer(q, 0)
		top5, _ := e.answer(q, 5)
		if len(top5) > 5 {
			t.Fatalf("query %d: cap violated, %d results", q, len(top5))
		}
		if len(all) >= 5 && len(top5) != 5 {
			t.Fatalf("query %d: expected exactly 5 of %d", q, len(all))
		}
		// The capped results must be a prefix of the full ranking.
		for i, d := range top5 {
			if all[i] != d {
				t.Fatalf("query %d: capped ranking diverges at %d", q, i)
			}
		}
	}
}

func TestRecallLossGrowsAsCapShrinks(t *testing.T) {
	e := newEngine(t)
	meanAcc := func(cfg int) float64 {
		var s float64
		n := 12
		for it := 0; it < n; it++ {
			_, a := e.Step(cfg, it)
			s += a
		}
		return s / float64(n)
	}
	prev := 1.1
	for cfg := 0; cfg < e.NumConfigs(); cfg++ {
		acc := meanAcc(cfg)
		if acc > prev+1e-9 {
			t.Fatalf("accuracy rose when cap shrank at config %d", cfg)
		}
		prev = acc
	}
}

func TestPrecisionAlwaysPerfect(t *testing.T) {
	// Every returned document must be in the default result set (the cap
	// only truncates the same ranking, so precision stays 1).
	e := newEngine(t)
	for q := 0; q < 20; q++ {
		docs, _ := e.answer(q, 5)
		for _, d := range docs {
			if !e.refSets[q][d] {
				t.Fatalf("query %d returned doc %d outside the reference set", q, d)
			}
		}
	}
}

func TestWorkDropsWithCap(t *testing.T) {
	e := newEngine(t)
	wAll, _ := e.Step(0, 0)
	wTop5, _ := e.Step(5, 0)
	if wTop5 >= wAll {
		t.Fatalf("capped work %v not below full work %v", wTop5, wAll)
	}
}

func TestQueriesHaveResults(t *testing.T) {
	e := newEngine(t)
	empty := 0
	for q := range e.queries {
		if e.refLens[q] == 0 {
			empty++
		}
	}
	if empty > queryPool/4 {
		t.Fatalf("%d/%d queries match nothing — corpus too sparse", empty, queryPool)
	}
}

func TestSnippetCountsWork(t *testing.T) {
	e := newEngine(t)
	w := e.snippet(0, []int{1, 2, 3})
	if w < float64(len(e.corpus.Docs[0])*3) {
		t.Fatalf("snippet work %v below full scan", w)
	}
}
