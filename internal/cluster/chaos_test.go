package cluster_test

// Cluster chaos suite: coordinator crash with standby promotion,
// split-brain attempts, network partitions, and member flapping — each
// scenario asserting the fleet lease-safety invariant and that no joule
// is ever granted by two coordinators across an epoch change. Network
// faults come from the seeded faults.Fabric, so every schedule here is
// reproducible by its seed.

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jouleguard/internal/cluster"
	"jouleguard/internal/faults"
	"jouleguard/internal/wire"
)

// addStandby builds a follower coordinator shadowing f's primary over
// the HTTP WAL tail, served on its own listener so members can fail
// over to it.
func (f *fleet) addStandby(walPath string) (*cluster.Standby, *httptest.Server) {
	f.t.Helper()
	shadow, err := cluster.New(cluster.Config{
		FleetBudgetJ:  f.coord.Info(false).FleetJ,
		LeaseTTL:      f.ttl,
		SweepInterval: -1,
		Clock:         f.clock.Now,
		WALPath:       walPath,
		Follower:      true,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(shadow.Stop)
	sb, err := cluster.NewStandby(shadow, cluster.StandbyConfig{
		PrimaryURL: f.coordTS.URL,
		Clock:      f.clock.Now,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	ts := httptest.NewServer(shadow.Handler())
	f.t.Cleanup(ts.Close)
	return sb, ts
}

// assertCoordInvariant is fleet.assertInvariant for a coordinator the
// fleet struct does not own (a promoted standby).
func assertCoordInvariant(t *testing.T, c *cluster.Coordinator, when string) {
	t.Helper()
	info := c.Info(false)
	if got := info.LeasedUnspentJ + info.ConsumedJ; got > info.FleetJ+1e-6 {
		t.Fatalf("%s: unspent %.3f + consumed %.3f = %.3f exceeds fleet budget %.3f",
			when, info.LeasedUnspentJ, info.ConsumedJ, got, info.FleetJ)
	}
	if info.InvariantViolations != 0 {
		t.Fatalf("%s: coordinator recorded %d ledger violations", when, info.InvariantViolations)
	}
}

func hostport(url string) string { return strings.TrimPrefix(url, "http://") }

// beatUntilOK retries a heartbeat through injected faults; the bound
// keeps a broken retry path from hanging the suite.
func beatUntilOK(t *testing.T, m *cluster.Member, tries int) {
	t.Helper()
	var err error
	for i := 0; i < tries; i++ {
		if err = m.Beat(); err == nil {
			return
		}
	}
	t.Fatalf("heartbeat failed %d times in a row: %v", tries, err)
}

// TestChaosCoordinatorCrashMidExtend kills the primary after it booked a
// lease extension whose response the member never received. The phantom
// grant is in the replicated WAL, so the promoted standby escrows it
// with the rest of the node's unspent lease; the member's
// rejoin-reconcile then refunds everything it never actually spent —
// the crashed grant cannot be drawn under the old reign (the member
// never got it) nor double-booked under the new one.
func TestChaosCoordinatorCrashMidExtend(t *testing.T) {
	f := newFleet(t, 20000, 0)
	sb, sbTS := f.addStandby("")
	m0 := f.addNodeWith("node0", []string{sbTS.URL}, nil)
	d := f.place("job-mid", "t1", 30, 2, 7)
	for i := 0; i < 10; i++ {
		d.step()
	}
	if err := m0.Beat(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Poll(); err != nil {
		t.Fatal(err)
	}

	// The crash window: the primary books an extension (logged,
	// replicated) but dies before the member sees the response.
	ep := f.info().Nodes[0].Epoch
	if _, err := f.coord.Extend(wire.ExtendRequest{Node: "node0", Epoch: ep, NeedJ: 500}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Poll(); err != nil {
		t.Fatal(err)
	}
	f.coordTS.Close()

	fence := sb.Promote()
	if fence != 1 {
		t.Fatalf("fence %d after first promotion, want 1", fence)
	}
	np := sb.Coordinator()
	assertCoordInvariant(t, np, "after promotion")
	info := np.Info(true)
	if info.NodesLive != 0 {
		t.Fatalf("%d nodes live right after promotion, want 0 (all escrowed)", info.NodesLive)
	}
	if info.Nodes[0].EscrowJ <= 0 {
		t.Fatalf("escrow %.3f after promotion, want the unspent lease (incl. the phantom grant)", info.Nodes[0].EscrowJ)
	}

	// The member's next beats rotate to the standby, rejoin at the new
	// fence, and reconcile: escrow beyond the true spend is refunded.
	for i := 0; i < 3; i++ {
		if err := m0.Beat(); err != nil {
			t.Fatalf("beat %d after failover: %v", i, err)
		}
	}
	if got := m0.Fence(); got != fence {
		t.Fatalf("member fence %d after rejoin, want %d", got, fence)
	}
	info = np.Info(true)
	if !info.Nodes[0].Live {
		t.Fatal("node not live on the new primary after rejoin")
	}
	if info.Nodes[0].EscrowJ != 0 {
		t.Fatalf("escrow %.3f after reconcile, want 0", info.Nodes[0].EscrowJ)
	}
	spent := f.servers[0].TotalSpentJ()
	if diff := info.ConsumedJ - spent; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("new primary books %.6f J consumed, node actually spent %.6f J: the epoch change double- or under-counted",
			info.ConsumedJ, spent)
	}

	// The session survives the failover and the new primary learns its
	// progress from re-shipped heartbeat reports.
	for i := 0; i < 5; i++ {
		d.step()
	}
	for i := 0; i < 2; i++ {
		if err := m0.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	info = np.Info(true)
	found := false
	for _, s := range info.Sessions {
		if s.Key == "job-mid" {
			found = true
			if s.Done != 15 {
				t.Fatalf("new primary holds %d iterations for job-mid, want 15", s.Done)
			}
		}
	}
	if !found {
		t.Fatal("new primary lost job-mid across the failover")
	}
	assertCoordInvariant(t, np, "after failover workload")
}

// TestChaosSplitBrainAttempt promotes the standby while the old primary
// is still serving. The window before any peer relays the new fence is
// safe by escrow (the new primary booked the whole unspent lease as
// consumed); the moment the old primary sees the new fence it deposes
// itself, and members that learned the fence reject its grants — the
// regression pinned here is that a deposed primary's stale-epoch push
// is refused by nodes, so one joule can never be granted by two
// coordinators.
func TestChaosSplitBrainAttempt(t *testing.T) {
	f := newFleet(t, 20000, 0)
	sb, sbTS := f.addStandby("")
	m0 := f.addNodeWith("node0", []string{sbTS.URL}, nil)
	d := f.place("job-split", "t1", 20, 2, 7)
	for i := 0; i < 5; i++ {
		d.step()
	}
	if err := m0.Beat(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Poll(); err != nil {
		t.Fatal(err)
	}
	ep := f.info().Nodes[0].Epoch

	fence := sb.Promote() // the split-brain attempt: both coordinators think they serve
	np := sb.Coordinator()

	// TTL-bounded honesty window: the member has not met the new primary
	// yet, so the old one still answers it — safely, because the new
	// primary escrowed the node's entire unspent lease at promotion.
	if err := m0.Beat(); err != nil {
		t.Fatal(err)
	}
	assertCoordInvariant(t, np, "split-brain window")

	// The old primary becomes unreachable for one beat; the member
	// rotates to the standby and rejoins at the new fence.
	f.coordTS.Close()
	for i := 0; i < 2; i++ {
		if err := m0.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m0.Fence(); got != fence {
		t.Fatalf("member fence %d, want %d", got, fence)
	}

	// The old primary comes back (same process state, new listener). The
	// first request carrying the new fence deposes it on the spot...
	revived := httptest.NewServer(f.coord.Handler())
	defer revived.Close()
	hb := wire.HeartbeatRequest{Node: "node0", Epoch: ep, Fence: fence}
	if status, werr := postJSON(t, revived.URL+wire.ClusterBasePath+"/heartbeat", hb, nil); status != 409 || werr.Code != wire.CodeStaleEpoch {
		t.Fatalf("old primary answered fence-%d heartbeat with %d %q, want 409 stale_epoch", fence, status, werr.Code)
	}
	// ...and it stays deposed even for peers that never learned the fence.
	hb.Fence = 0
	if status, werr := postJSON(t, revived.URL+wire.ClusterBasePath+"/heartbeat", hb, nil); status != 409 || werr.Code != wire.CodeStaleEpoch {
		t.Fatalf("deposed primary answered fence-0 heartbeat with %d %q, want 409 stale_epoch", status, werr.Code)
	}
	if role := f.coord.Info(false).Role; role != "deposed" {
		t.Fatalf("old primary role %q, want deposed", role)
	}
	// Single-writer: a deposed ledger never expires leases or reassigns
	// sessions again.
	if n := f.coord.Sweep(); n != 0 {
		t.Fatalf("deposed primary expired %d leases", n)
	}

	// A deposed primary's grant push is refused by the member outright.
	adopt := wire.AdoptRequest{Fence: 0}
	if status, werr := postJSON(t, f.nodeTS[0].URL+wire.ClusterBasePath+"/adopt", adopt, nil); status != 409 || werr.Code != wire.CodeStaleEpoch {
		t.Fatalf("member accepted a stale-fence adopt push: %d %q, want 409 stale_epoch", status, werr.Code)
	}
	assertCoordInvariant(t, np, "after deposition")
}

// TestChaosPartitionThenHeal cuts the member-coordinator link with the
// fault fabric: the coordinator escrows the silent node's lease while
// the node self-fences, so the books stay safe on both sides; healing
// reconciles the escrow back to the true spend and the stranded session
// resumes.
func TestChaosPartitionThenHeal(t *testing.T) {
	fab := faults.NewFabric(11)
	f := newFleet(t, 20000, 0)
	fab.Register("coordinator", hostport(f.coordTS.URL))
	m0 := f.addNodeWith("node0", nil, fab.Client("node0", 0))
	d := f.place("job-part", "t1", 20, 2, 7)
	for i := 0; i < 6; i++ {
		d.step()
	}
	if err := m0.Beat(); err != nil {
		t.Fatal(err)
	}
	f.assertInvariant("before partition")

	fab.Partition("node0", "coordinator")
	if err := m0.Beat(); err == nil {
		t.Fatal("heartbeat crossed a partition")
	}
	f.clock.Advance(f.ttl + time.Second)
	if n := f.coord.Sweep(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	f.assertInvariant("after escrow")
	if !m0.CheckFence() {
		t.Fatal("partitioned member did not self-fence past the lease deadline")
	}
	if code := d.tryNext(); code == "" {
		t.Fatal("fenced node still served iterations")
	}
	// No survivors to move to: the session waits for its owner.
	if n := len(f.info().Sessions); n != 1 {
		t.Fatalf("%d sessions on the books during the partition, want 1", n)
	}

	fab.Heal("node0", "coordinator")
	for i := 0; i < 2; i++ {
		if err := m0.Beat(); err != nil {
			t.Fatalf("beat %d after heal: %v", i, err)
		}
	}
	f.assertInvariant("after heal")
	info := f.info()
	if info.Nodes[0].EscrowJ != 0 {
		t.Fatalf("escrow %.3f after rejoin, want 0 (refunded)", info.Nodes[0].EscrowJ)
	}
	spent := f.servers[0].TotalSpentJ()
	if diff := info.ConsumedJ - spent; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("consumed %.6f J vs actual spend %.6f J after reconcile", info.ConsumedJ, spent)
	}
	if code := d.tryNext(); code != "" {
		t.Fatalf("session did not resume after heal: %s", code)
	}
	if _, _, blocked := fab.Stats(); blocked == 0 {
		t.Fatal("fabric never blocked a partitioned request")
	}
}

// TestChaosMemberFlapping runs a node through repeated
// expire-rejoin-reconcile cycles under seeded message loss: every round
// must hold the invariant, and after the final rejoin the coordinator's
// consumed total must equal the node's true metered spend exactly — the
// escrow refunded on every lap, never leaked and never double-booked.
func TestChaosMemberFlapping(t *testing.T) {
	fab := faults.NewFabric(23)
	f := newFleet(t, 20000, 0)
	fab.Register("coordinator", hostport(f.coordTS.URL))
	m0 := f.addNodeWith("node0", nil, fab.Client("node0", 0))
	fab.SetRules("node0", "coordinator", faults.NetRules{DropP: 0.3})
	d := f.place("job-flap", "t1", 40, 2, 7)

	for round := 0; round < 5; round++ {
		beatUntilOK(t, m0, 20) // rejoin after the previous flap (round 0: plain renewal)
		for i := 0; i < 4; i++ {
			d.step()
		}
		beatUntilOK(t, m0, 20)
		f.assertInvariant(fmt.Sprintf("round %d reported", round))
		f.clock.Advance(f.ttl + time.Second)
		f.coord.Sweep()
		m0.CheckFence()
		f.assertInvariant(fmt.Sprintf("round %d expired", round))
	}
	beatUntilOK(t, m0, 20)
	f.assertInvariant("final")
	info := f.info()
	spent := f.servers[0].TotalSpentJ()
	if diff := info.ConsumedJ - spent; diff < -1e-6 || diff > 1e-6 {
		t.Fatalf("after 5 flaps: consumed %.6f J vs actual spend %.6f J", info.ConsumedJ, spent)
	}
	if drops, _, _ := fab.Stats(); drops == 0 {
		t.Fatal("seeded fabric never dropped a request; the flapping ran unchallenged")
	}
}
