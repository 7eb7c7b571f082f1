package faults_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"jouleguard/internal/faults"
)

func fabricServer(t *testing.T, hits *atomic.Int64) (*httptest.Server, string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, strings.TrimPrefix(srv.URL, "http://")
}

func TestFabricPartitionBlocksBothDirections(t *testing.T) {
	var hits atomic.Int64
	srv, hostport := fabricServer(t, &hits)
	fab := faults.NewFabric(1)
	fab.Register("node0", hostport)
	fab.Partition("client", "node0")

	cli := fab.Client("client", 0)
	if _, err := cli.Get(srv.URL); err == nil {
		t.Fatal("partitioned request went through")
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d requests across a partition", hits.Load())
	}
	fab.Heal("client", "node0")
	resp, err := cli.Get(srv.URL)
	if err != nil {
		t.Fatalf("healed request failed: %v", err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests after heal, want 1", hits.Load())
	}
	_, _, blocked := fab.Stats()
	if blocked != 1 {
		t.Fatalf("blocked = %d, want 1", blocked)
	}
}

func TestFabricDropDeterministicUnderSeed(t *testing.T) {
	schedule := func(seed int64) []bool {
		var hits atomic.Int64
		srv, hostport := fabricServer(t, &hits)
		fab := faults.NewFabric(seed)
		fab.Register("coord", hostport)
		fab.SetRules("m", "coord", faults.NetRules{DropP: 0.5})
		cli := fab.Client("m", 0)
		var outcomes []bool
		for i := 0; i < 40; i++ {
			resp, err := cli.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			outcomes = append(outcomes, err == nil)
		}
		return outcomes
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 40-request schedule")
	}
}

func TestFabricDuplicateDeliversTwice(t *testing.T) {
	var hits atomic.Int64
	srv, hostport := fabricServer(t, &hits)
	fab := faults.NewFabric(3)
	fab.Register("node0", hostport)
	fab.SetRules("client", "node0", faults.NetRules{DupP: 1})

	cli := fab.Client("client", 0)
	resp, err := cli.Post(srv.URL, "application/json", bytes.NewReader([]byte(`{"x":1}`)))
	if err != nil {
		t.Fatalf("duplicated POST failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != `{"x":1}` {
		t.Fatalf("caller saw body %q, want the original payload", body)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d deliveries, want 2", hits.Load())
	}
}

func TestFabricUnknownDestinationUntouched(t *testing.T) {
	var hits atomic.Int64
	srv, _ := fabricServer(t, &hits)
	fab := faults.NewFabric(5)
	fab.SetDefault(faults.NetRules{DropP: 1})
	cli := fab.Client("client", 0)
	resp, err := cli.Get(srv.URL)
	if err != nil {
		t.Fatalf("request to unregistered endpoint failed: %v", err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", hits.Load())
	}
}
