package server

import (
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"jouleguard/internal/telemetry"
)

// TestBrokerInvariants pins I1 (committed + consumed never exceeds the
// global pool) across admit/release churn, and that admission control
// rejects what the pool cannot honor.
func TestBrokerInvariants(t *testing.T) {
	b, err := NewBroker(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkI1 := func(when string) {
		t.Helper()
		info := b.Info()
		if info.CommittedJ+info.ConsumedJ > info.GlobalJ+1e-9 {
			t.Fatalf("%s: I1 violated: committed %.3f + consumed %.3f > global %.3f",
				when, info.CommittedJ, info.ConsumedJ, info.GlobalJ)
		}
	}

	// Absolute grants commit grant x reserve.
	g1, err := b.Admit("a", 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	if g1.GrantJ != 400 || math.Abs(g1.CommitJ-400*DefaultReserve) > 1e-9 {
		t.Fatalf("grant %.1f commit %.3f", g1.GrantJ, g1.CommitJ)
	}
	checkI1("after first admit")

	// A request the remainder cannot cover (with reserve) is rejected.
	if _, err := b.Admit("b", 1, 600); err == nil {
		t.Fatal("over-budget request admitted")
	} else if !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("unexpected rejection error: %v", err)
	}
	if b.Info().Rejected != 1 {
		t.Fatalf("rejections: %d", b.Info().Rejected)
	}
	checkI1("after rejection")

	// Weighted shares split the uncommitted pool and always fit.
	g2, err := b.Admit("b", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkI1("after weighted admit")
	if g2.GrantJ <= 0 {
		t.Fatalf("weighted grant %.3f", g2.GrantJ)
	}

	// Release returns the commitment and books the real spend.
	b.Release(g1, 390)
	checkI1("after release")
	if got := b.Info().ConsumedJ; got != 390 {
		t.Fatalf("consumed %.1f", got)
	}
	b.Release(g2, g2.GrantJ)
	checkI1("after releasing everything")
	if b.Info().Active != 0 {
		t.Fatalf("active %d", b.Info().Active)
	}
}

// TestBrokerCarryOver pins the deficit ledger: underspend returns as a
// credit on the tenant's next weighted share; overdraft (within the
// reserve slack) shrinks it.
func TestBrokerCarryOver(t *testing.T) {
	b, err := NewBroker(1000, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Underspender earns a credit.
	g, _ := b.Admit("thrifty", 1, 200)
	b.Release(g, 150)
	if c := b.Carry("thrifty"); math.Abs(c-50) > 1e-9 {
		t.Fatalf("credit carry %.3f, want 50", c)
	}

	// Overspender earns a debit.
	g2, _ := b.Admit("greedy", 1, 200)
	b.Release(g2, 210) // 5% overshoot, within the reserve
	if c := b.Carry("greedy"); math.Abs(c+10) > 1e-9 {
		t.Fatalf("debit carry %.3f, want -10", c)
	}

	// An anchor session keeps part of the pool committed so weighted
	// shares are proper fractions; the carries then adjust each tenant's
	// share exactly.
	if _, err := b.Admit("anchor", 2, 300); err != nil {
		t.Fatal(err)
	}
	baseT := (b.Available() / DefaultReserve) / 3 // weight 1 vs active weight 2
	gt, err := b.Admit("thrifty", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gt.GrantJ-(baseT+50)) > 1e-6 {
		t.Fatalf("thrifty grant %.3f, want base %.3f + 50 credit", gt.GrantJ, baseT)
	}
	baseG := (b.Available() / DefaultReserve) / 4 // weight 1 vs active weight 3
	gg, err := b.Admit("greedy", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gg.GrantJ-(baseG-10)) > 1e-6 {
		t.Fatalf("greedy grant %.3f, want base %.3f - 10 debit", gg.GrantJ, baseG)
	}
	// Both ledgers were applied.
	if b.Carry("thrifty") != 0 || b.Carry("greedy") != 0 {
		t.Fatalf("carries not cleared: %.3f / %.3f", b.Carry("thrifty"), b.Carry("greedy"))
	}

	info := b.Info()
	if info.CommittedJ+info.ConsumedJ > info.GlobalJ+1e-9 {
		t.Fatalf("I1 violated after carry application")
	}
}

// TestBrokerDebitBlocksAbsolute pins that an overdrafted tenant must
// cover its debit on top of an absolute request.
func TestBrokerDebitBlocksAbsolute(t *testing.T) {
	b, err := NewBroker(230, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := b.Admit("a", 1, 200)
	b.Release(g, 210) // 10 J overdraft; consumed=210, avail=20
	// 15 J would fit on its own ((15+10)*1.05 = 26.25 > 20 does not).
	if _, err := b.Admit("a", 1, 15); err == nil {
		t.Fatal("debit-carrying tenant admitted without covering its debit")
	}
	// A clean tenant with a smaller ask fits.
	if _, err := b.Admit("b", 1, 15); err != nil {
		t.Fatalf("clean tenant rejected: %v", err)
	}
}

// TestTenantCellsOwnTheirLines pins the layout the settle path relies
// on: every settle writes its tenant's spend counter and burn gauge from
// whichever core the session runs on, so two tenants' cells must not
// share a 64-byte cache line. Each of the four must start a line and
// fill it.
func TestTenantCellsOwnTheirLines(t *testing.T) {
	b, err := NewBroker(1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Instrument(telemetry.NewRegistry())
	lines := map[uintptr]string{}
	for _, tenant := range []string{"a", "b"} {
		c := b.spendCell(tenant)
		for name, cell := range map[string]struct {
			addr, size uintptr
		}{
			"burn gauge":    {uintptr(unsafe.Pointer(c.gBurn)), unsafe.Sizeof(*c.gBurn)},
			"spend counter": {uintptr(unsafe.Pointer(c.cSpent)), unsafe.Sizeof(*c.cSpent)},
		} {
			what := tenant + "'s " + name
			if cell.addr%64 != 0 || cell.size != 64 {
				t.Errorf("%s at %#x spans %d bytes, want one whole 64-byte line", what, cell.addr, cell.size)
			}
			if other, dup := lines[cell.addr/64]; dup {
				t.Errorf("%s shares a cache line with %s", what, other)
			}
			lines[cell.addr/64] = what
		}
	}
}

// TestSpendCellsSumExactly settles several sessions of one tenant at
// once — half through the spend cell a session holds, half through the
// public NoteSpend — while a reader observes. Every delta is a small
// dyadic fraction, so the tenant's noted spend must come out as the
// exact sum whatever order the notes land in, on Observe, ObserveAll
// and the tenant's spend counter alike, and another tenant's cell must
// stay untouched. A cell note must also go through while b.mu is held:
// the settle path never takes the broker-wide lock.
func TestSpendCellsSumExactly(t *testing.T) {
	b, err := NewBroker(1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	b.Instrument(reg)
	const sessions, settles = 4, 2000
	for i := 0; i < sessions; i++ {
		if _, err := b.Admit("a", 1, 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Admit("b", 1, 10); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := b.Observe("a")
			if v.SpentJ < last {
				t.Errorf("tenant spend went from %v to %v", last, v.SpentJ)
				return
			}
			last = v.SpentJ
			b.ObserveAll()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := b.spendCell("a")
			for k := 0; k < settles; k++ {
				d := float64(1+k%8) / 64
				if i%2 == 0 {
					cell.note(d, 0.25)
				} else {
					b.NoteSpend("a", d, 0.25)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	cell := b.spendCell("a")
	b.mu.Lock()
	cell.note(0.5, 0.25) // would deadlock if a settle took b.mu
	b.mu.Unlock()
	want := float64(sessions)*float64(settles/8)*36/64 + 0.5
	if got := b.Observe("a").SpentJ; got != want {
		t.Errorf("Observe: tenant spend %v, want exactly %v", got, want)
	}
	views, _ := b.ObserveAll()
	for _, v := range views {
		if exp := map[string]float64{"a": want, "b": 0}[v.Tenant]; v.SpentJ != exp {
			t.Errorf("ObserveAll: tenant %s spend %v, want exactly %v", v.Tenant, v.SpentJ, exp)
		}
	}
	spent := reg.Counter("jouleguard_tenant_spent_joules", "", telemetry.Label{Name: "tenant", Value: "a"})
	if spent.Value() != want {
		t.Errorf("spend counter %v, want exactly %v", spent.Value(), want)
	}
}
