package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/cluster"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// manualClock is a shared, hand-advanced clock so lease TTLs and fences
// line up deterministically across coordinator and members.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1700000000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newMachine is the modeled radar-on-Tablet machine a test's governed
// application runs on.
func newMachine(t *testing.T) *jouleguard.Machine {
	t.Helper()
	tb, err := jouleguard.NewTestbed("radar", "Tablet")
	if err != nil {
		t.Fatal(err)
	}
	return tb.Machine()
}

// fleet is a coordinator plus N member daemons, all on httptest servers
// with the shared manual clock and manual heartbeats/sweeps.
type fleet struct {
	t       *testing.T
	clock   *manualClock
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	members []*cluster.Member
	servers []*server.Server
	nodeTS  []*httptest.Server
	ttl     time.Duration

	mu        sync.Mutex
	intercept []func(*http.Request) // per-node request hook (race tests)
}

// setIntercept installs a hook run before node idx serves each request.
func (f *fleet) setIntercept(idx int, h func(*http.Request)) {
	f.mu.Lock()
	f.intercept[idx] = h
	f.mu.Unlock()
}

func (f *fleet) getIntercept(idx int) func(*http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.intercept[idx]
}

func newFleet(t *testing.T, fleetJ float64, nodes int) *fleet {
	return newFleetCfg(t, fleetJ, nodes, nil)
}

// newFleetCfg builds a fleet letting the test adjust the coordinator
// config (e.g. a WAL path) before it starts.
func newFleetCfg(t *testing.T, fleetJ float64, nodes int, edit func(*cluster.Config)) *fleet {
	t.Helper()
	clk := newManualClock()
	ttl := 3 * time.Second
	cfg := cluster.Config{
		FleetBudgetJ:  fleetJ,
		LeaseTTL:      ttl,
		SweepInterval: -1, // tests call Sweep explicitly
		Clock:         clk.Now,
	}
	if edit != nil {
		edit(&cfg)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	f := &fleet{t: t, clock: clk, coord: coord, ttl: ttl}
	f.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(f.coordTS.Close)
	for i := 0; i < nodes; i++ {
		f.addNode(fmt.Sprintf("node%d", i))
	}
	return f
}

// addNode builds one member daemon and joins it to the fleet. The
// server is deliberately seeded with the daemon's default 10000 J
// -budget so the join must prove the lease — not the local flag — is
// the only budget source.
func (f *fleet) addNode(name string) *cluster.Member {
	return f.addNodeWith(name, nil, nil)
}

// addNodeWith builds a member with an explicit standby coordinator list
// and/or HTTP client (for fault-fabric transports); nils take defaults.
func (f *fleet) addNodeWith(name string, standbys []string, httpc *http.Client) *cluster.Member {
	return f.addNodeCfg(name, standbys, httpc, nil)
}

// addNodeCfg additionally lets the test adjust the node's server config
// before it starts (e.g. enabling the QoS ladder on one node).
func (f *fleet) addNodeCfg(name string, standbys []string, httpc *http.Client, edit func(*server.Config)) *cluster.Member {
	f.t.Helper()
	const seedJ = 10000
	scfg := server.Config{GlobalBudgetJ: seedJ, SweepInterval: -1, Clock: f.clock.Now}
	if edit != nil {
		edit(&scfg)
	}
	srv, err := server.New(scfg)
	if err != nil {
		f.t.Fatal(err)
	}
	idx := len(f.members)
	f.mu.Lock()
	f.intercept = append(f.intercept, nil)
	f.mu.Unlock()
	var m *cluster.Member
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := f.getIntercept(idx); h != nil {
			h(r)
		}
		m.Handler().ServeHTTP(w, r)
	}))
	f.t.Cleanup(ts.Close)
	m, err = cluster.NewMember(cluster.MemberConfig{
		CoordinatorURL:  f.coordTS.URL,
		CoordinatorURLs: standbys,
		Node:            name,
		Advertise:       ts.URL,
		Server:          srv,
		Clock:           f.clock.Now,
		HTTPClient:      httpc,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	if err := m.Join(); err != nil {
		f.t.Fatalf("join %s: %v", name, err)
	}
	if g := srv.Broker().Global(); g != m.LeaseJ() || g == seedJ {
		f.t.Fatalf("join left %s broker at %.1f J (lease %.1f J): the pre-join budget must be replaced by the lease",
			name, g, m.LeaseJ())
	}
	f.members = append(f.members, m)
	f.servers = append(f.servers, srv)
	f.nodeTS = append(f.nodeTS, ts)
	return m
}

func (f *fleet) info() wire.ClusterInfo { return f.coord.Info(true) }

// assertInvariant checks the fleet safety condition from the ledger's
// own view and fails the test on any recorded self-check violation.
func (f *fleet) assertInvariant(when string) {
	f.t.Helper()
	info := f.info()
	if got := info.LeasedUnspentJ + info.ConsumedJ; got > info.FleetJ+1e-6 {
		f.t.Fatalf("%s: unspent %.3f + consumed %.3f = %.3f exceeds fleet budget %.3f",
			when, info.LeasedUnspentJ, info.ConsumedJ, got, info.FleetJ)
	}
	if info.InvariantViolations != 0 {
		f.t.Fatalf("%s: coordinator recorded %d ledger violations", when, info.InvariantViolations)
	}
}

// nodeIdx maps a node name back to its fleet index.
func (f *fleet) nodeIdx(name string) int {
	for i := range f.members {
		if fmt.Sprintf("node%d", i) == name {
			return i
		}
	}
	f.t.Fatalf("unknown node %q", name)
	return -1
}

// driver speaks the raw wire protocol against whichever node currently
// owns its session.
type driver struct {
	t    *testing.T
	base string
	id   string
	m    *jouleguard.Machine
	iter int
}

// noRedirect surfaces 307s instead of following them, so tests can pin
// the redirect contract (plain clients do follow them transparently —
// TestRegisterRedirectFollowable proves that).
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func postJSON(t *testing.T, url string, in, out any) (int, wire.ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := noRedirect.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var werr wire.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&werr)
		return resp.StatusCode, werr
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, wire.ErrorResponse{}
}

// place asks the coordinator where key lives and registers there.
func (f *fleet) place(key, tenant string, iters int, factor float64, seed int64) *driver {
	f.t.Helper()
	reg := wire.RegisterRequest{
		Tenant: tenant, Key: key, App: "radar", Platform: "Tablet",
		Iterations: iters, Factor: factor, Seed: seed,
	}
	status, werr := postJSON(f.t, f.coordTS.URL+wire.BasePath, reg, nil)
	if status != http.StatusTemporaryRedirect || werr.Code != wire.CodeNotOwner || werr.Addr == "" {
		f.t.Fatalf("coordinator register: status %d code %q addr %q", status, werr.Code, werr.Addr)
	}
	var resp wire.RegisterResponse
	if status, e := postJSON(f.t, werr.Addr+wire.BasePath, reg, &resp); status >= 300 {
		f.t.Fatalf("node register: status %d %+v", status, e)
	}
	return &driver{t: f.t, base: werr.Addr, id: resp.SessionID, m: newMachine(f.t)}
}

// step runs one governed iteration; it returns the decision so golden
// tests can compare sequences.
func (d *driver) step() (wire.NextResponse, wire.DoneResponse) {
	d.t.Helper()
	var next wire.NextResponse
	if status, e := postJSON(d.t, d.base+wire.BasePath+"/"+d.id+"/next", wire.NextRequest{NowS: d.m.ClockS}, &next); status != http.StatusOK {
		d.t.Fatalf("next: status %d %+v", status, e)
	}
	acc := d.m.Step(next.AppConfig, next.SysConfig, d.iter)
	d.iter++
	var done wire.DoneResponse
	if status, e := postJSON(d.t, d.base+wire.BasePath+"/"+d.id+"/done",
		wire.DoneRequest{NowS: d.m.ClockS, EnergyJ: d.m.EnergyJ, Accuracy: acc}, &done); status != http.StatusOK {
		d.t.Fatalf("done: status %d %+v", status, e)
	}
	return next, done
}

// tryNext attempts a bare next call and reports the wire error code ("" on
// success, in which case the iteration is immediately completed).
func (d *driver) tryNext() string {
	d.t.Helper()
	var next wire.NextResponse
	status, e := postJSON(d.t, d.base+wire.BasePath+"/"+d.id+"/next", wire.NextRequest{NowS: d.m.ClockS}, &next)
	if status != http.StatusOK {
		return e.Code
	}
	acc := d.m.Step(next.AppConfig, next.SysConfig, d.iter)
	d.iter++
	var done wire.DoneResponse
	if status, e := postJSON(d.t, d.base+wire.BasePath+"/"+d.id+"/done",
		wire.DoneRequest{NowS: d.m.ClockS, EnergyJ: d.m.EnergyJ, Accuracy: acc}, &done); status != http.StatusOK {
		d.t.Fatalf("done after successful next: status %d %+v", status, e)
	}
	return ""
}

// TestFleetLeaseLifecycle pins the basic loop: join grants leases,
// sessions run under them, heartbeats book consumption and ship
// iteration logs to the coordinator, and the ledger invariant holds
// throughout.
func TestFleetLeaseLifecycle(t *testing.T) {
	f := newFleet(t, 20000, 2)
	f.assertInvariant("after join")

	info := f.info()
	if info.NodesLive != 2 {
		t.Fatalf("nodes live %d, want 2", info.NodesLive)
	}
	if info.LeasedUnspentJ <= 0 || info.PoolJ <= 0 {
		t.Fatalf("leases %.1f pool %.1f, want both positive", info.LeasedUnspentJ, info.PoolJ)
	}

	d := f.place("job-alpha", "t1", 20, 2, 7)
	for i := 0; i < 20; i++ {
		d.step()
	}
	if d.m.EnergyJ <= 0 {
		t.Fatal("workload consumed no energy")
	}

	// Heartbeats from both nodes: the owner books spend and ships the log.
	for _, m := range f.members {
		if err := m.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	f.assertInvariant("after heartbeat")

	info = f.info()
	if info.ConsumedJ <= 0 {
		t.Fatalf("consumed %.3f after a full workload, want > 0", info.ConsumedJ)
	}
	var rec *wire.PlacementInfo
	for i := range info.Sessions {
		if info.Sessions[i].Key == "job-alpha" {
			rec = &info.Sessions[i]
		}
	}
	if rec == nil {
		t.Fatal("coordinator never learned about job-alpha")
	}
	if rec.Done != 20 || !rec.Complete {
		t.Fatalf("coordinator log: done %d complete %v, want 20/true", rec.Done, rec.Complete)
	}
}

// TestPlacementStability pins rendezvous hashing: repeated lookups for
// one key land on one node, and keys spread across the fleet.
func TestPlacementStability(t *testing.T) {
	f := newFleet(t, 20000, 3)
	owners := map[string]int{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("job-%02d", i)
		first, err := f.coord.Place(key)
		if err != nil {
			t.Fatal(err)
		}
		again, err := f.coord.Place(key)
		if err != nil {
			t.Fatal(err)
		}
		if first.Node != again.Node {
			t.Fatalf("key %s moved from %s to %s without a failure", key, first.Node, again.Node)
		}
		owners[first.Node]++
	}
	if len(owners) < 2 {
		t.Fatalf("30 keys all landed on one node: %v", owners)
	}
}

// TestRegisterRedirectFollowable pins that a plain redirect-following
// HTTP client pointed at the coordinator lands its registration on the
// owning node with no protocol awareness at all (307 preserves the POST
// body).
func TestRegisterRedirectFollowable(t *testing.T) {
	f := newFleet(t, 20000, 2)
	body, _ := json.Marshal(wire.RegisterRequest{
		Tenant: "t1", Key: "follow-me", App: "radar", Platform: "Tablet",
		Iterations: 5, Factor: 2,
	})
	resp, err := http.Post(f.coordTS.URL+wire.BasePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg wire.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if reg.SessionID == "" || reg.GrantJ <= 0 {
		t.Fatalf("followed registration: %+v (status %d)", reg, resp.StatusCode)
	}
	place, err := f.coord.Place("follow-me")
	if err != nil {
		t.Fatal(err)
	}
	if place.Node == "" {
		t.Fatalf("placement lost after follow: %+v", place)
	}
}

// TestRegisterViaCoordinatorRequiresKey pins the redirect contract.
func TestRegisterViaCoordinatorRequiresKey(t *testing.T) {
	f := newFleet(t, 20000, 1)
	status, werr := postJSON(t, f.coordTS.URL+wire.BasePath, wire.RegisterRequest{
		Tenant: "t1", App: "radar", Platform: "Tablet", Iterations: 5, Factor: 2,
	}, nil)
	if status != http.StatusBadRequest || werr.Code != wire.CodeBadRequest {
		t.Fatalf("keyless register via coordinator: status %d code %q", status, werr.Code)
	}
}

// TestAdmitAssistExtendsLease pins the on-demand extension path: a
// registration that does not fit the node's current lease triggers the
// admission-assist hook, the member asks the coordinator for the
// shortfall, and the registration is admitted on the grown lease — the
// tenant never sees the intermediate budget_exhausted.
func TestAdmitAssistExtendsLease(t *testing.T) {
	f := newFleet(t, 20000, 1)
	// Initial lease: 20000 * 0.9 / 8 = 2250 J. Three 1000 J requests
	// commit 1050 J each — the third only fits after an extension.
	for i := 0; i < 3; i++ {
		reg := wire.RegisterRequest{
			Tenant: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("assist-%d", i),
			App: "radar", Platform: "Tablet", Iterations: 50, BudgetJ: 1000,
		}
		var resp wire.RegisterResponse
		if status, e := postJSON(t, f.nodeTS[0].URL+wire.BasePath, reg, &resp); status >= 300 {
			t.Fatalf("register %d: status %d %+v", i, status, e)
		}
	}
	if lease := f.servers[0].Broker().Global(); lease <= 2250 {
		t.Fatalf("lease %.1f J after three admissions, want extended beyond the initial 2250", lease)
	}
	f.assertInvariant("after assisted admissions")
}
