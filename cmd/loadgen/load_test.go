package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jouleguard/internal/measure"
	"jouleguard/internal/server"
)

// TestLoadRun drives a small fleet against an in-process daemon and pins
// the report's accounting: every tenant finishes, no tenant overruns its
// grant beyond the governor's slack, and the fleet stays inside the pool.
func TestLoadRun(t *testing.T) {
	srv, err := server.New(server.Config{GlobalBudgetJ: 100000, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:    ts.URL,
		Tenants:    4,
		Iterations: 20,
		Apps:       []string{"radar"},
		Platform:   "Tablet",
		Factor:     2,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 80 {
		t.Fatalf("fleet iterations %d, want 80", rep.Iterations)
	}
	if rep.Errors != 0 {
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Errorf("tenant %s: %v", tr.Tenant, tr.Err)
			}
		}
		t.FailNow()
	}
	if err := rep.Check(1.05); err != nil {
		t.Fatal(err)
	}
	if rep.TotalSpentJ > 100000 {
		t.Fatalf("fleet overran the global pool: %.1f", rep.TotalSpentJ)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestVerdicts feeds the verdict functions hand-built reports: the exit
// code is a smoke target's only output, so each way a run can be wrong
// must turn into an error that names it.
func TestVerdicts(t *testing.T) {
	honest := func(mut func(*TenantResult)) TenantResult {
		tr := TenantResult{Tenant: "tenant-00", Iterations: 100, GrantJ: 1000, SpentJ: 990}
		if mut != nil {
			mut(&tr)
		}
		return tr
	}
	adversary := func(denials int) TenantResult {
		return TenantResult{Tenant: "adversary-00", Adversary: true, GrantJ: 1000, SpentJ: 5000, Throttled: denials}
	}
	report := func(tenants ...TenantResult) *Report {
		rep := &Report{Tenants: tenants}
		for _, tr := range tenants {
			if tr.Err != nil && !tr.Adversary {
				rep.Errors++
			}
		}
		return rep
	}
	check := func(r *Report) error { return r.Check(1.05) }
	isolation := func(r *Report) error { return r.CheckIsolation(1.05) }

	cases := []struct {
		name    string
		verdict func(*Report) error
		rep     *Report
		want    string // substring of the error; empty = must pass
	}{
		{"within grant", check, report(honest(nil)), ""},
		{"at the slack exactly", check, report(honest(func(tr *TenantResult) { tr.SpentJ = 1050 })), ""},
		{"overrun", check, report(honest(func(tr *TenantResult) { tr.SpentJ = 1051 })), "spent 1051.0 J of a 1000.0 J grant"},
		{"no iterations", check, report(honest(func(tr *TenantResult) { tr.Iterations = 0 })), "completed no iterations"},
		{"tenant error", check, report(honest(func(tr *TenantResult) { tr.Err = errors.New("boom") })), "tenant-00 failed: boom"},
		{"adversary overrun is not judged", check, report(honest(nil), adversary(3)), ""},

		{"isolated", isolation, report(honest(nil), adversary(3)), ""},
		{"honest tenant denied", isolation, report(honest(func(tr *TenantResult) { tr.Shed = 1 }), adversary(3)), "honest tenant tenant-00 drew 1 enforcement denials"},
		{"adversary unenforced", isolation, report(honest(nil), adversary(0)), "adversaries ran unenforced"},
		{"isolation still checks the grant", isolation, report(honest(func(tr *TenantResult) { tr.SpentJ = 2000 }), adversary(3)), "grant"},
	}
	for _, c := range cases {
		expectVerdict(t, c.name, c.verdict(c.rep), c.want)
	}

	meter := []struct {
		name     string
		st       measure.Status
		injected bool
		want     string
	}{
		{"clean run", measure.Status{GateAccepted: 50}, false, ""},
		{"faults rejected", measure.Status{GateRejected: 4, Quarantined: true}, true, ""},
		{"window left open", measure.Status{OpenWindows: 2}, false, "2 attribution windows left open"},
		{"faults not rejected", measure.Status{GateAccepted: 50}, true, "gate rejected nothing"},
		{"quarantined without faults", measure.Status{Quarantined: true}, false, "quarantined with no faults"},
	}
	for _, c := range meter {
		expectVerdict(t, "meter: "+c.name, checkMeter(c.st, c.injected), c.want)
	}
}

func expectVerdict(t *testing.T, name string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: unexpected failure: %v", name, err)
	case want != "" && err == nil:
		t.Errorf("%s: passed, want an error containing %q", name, want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("%s: error %q does not contain %q", name, err, want)
	}
}
