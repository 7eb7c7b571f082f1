package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"jouleguard"
	"jouleguard/internal/measure"
	"jouleguard/internal/wire"
)

// cutRegime is one way of running the session under test.
type cutRegime struct {
	seed     int64
	errEvery int  // every errEvery-th Done reports a failed meter (0 = never)
	meter    bool // daemon bills a simulated meter, as loadgen -meter sim does
}

// newCutRig is the measurement stack of a metering daemon. Like real
// hardware it outlives the daemon: the servers on either side of a cut
// share one.
func newCutRig(t testing.TB, seed int64) *measure.SimBackend {
	t.Helper()
	rig, err := measure.NewSimBackend(2, seed, 1e4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func cutServer(t testing.TB, rig *measure.SimBackend) *Server {
	t.Helper()
	cfg := Config{GlobalBudgetJ: 1e9, SweepInterval: -1}
	if rig != nil {
		cfg.Meter, cfg.MeterStimulus = rig.Service, rig.Stimulus
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(srv) })
	return srv
}

// cutTrace is everything a run exposes that the governor's state
// decides: each iteration's configurations and ledger, then the learned
// estimates and the whole state blob.
type cutTrace struct {
	decisions [][2]int
	spent     []float64
	estimates []wire.ArmEstimate
	state     []byte
}

// drive settles iterations [from, to) of sess against m, appending to tr.
// Every iteration runs the kernel on input 0: the cut-point tests settle
// tens of thousands of iterations, and what they pin is the governor, not
// the kernel, whose Step the registry already caches per (config, input).
func (tr *cutTrace) drive(t testing.TB, srv *Server, sess *session, m *jouleguard.Machine, re cutRegime, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		next, werr := sess.next(wire.NextRequest{NowS: m.ClockS}, monoNS())
		if werr != nil {
			t.Fatalf("next %d: %v", k, werr)
		}
		acc := m.Step(next.AppConfig, next.SysConfig, 0)
		req := wire.DoneRequest{NowS: m.ClockS, EnergyJ: m.EnergyJ, Accuracy: acc}
		if re.errEvery > 0 && k%re.errEvery == re.errEvery-1 {
			req = wire.DoneRequest{NowS: m.ClockS, EnergyErr: true, Accuracy: acc}
		}
		done, werr := sess.done(req)
		if werr != nil {
			t.Fatalf("done %d: %v", k, werr)
		}
		tr.decisions = append(tr.decisions, [2]int{next.AppConfig, next.SysConfig})
		tr.spent = append(tr.spent, done.SpentJ)
	}
}

func (tr *cutTrace) finish(t testing.TB, sess *session) {
	t.Helper()
	tr.estimates = sess.info(true).Estimates
	sess.mu.Lock()
	defer sess.mu.Unlock()
	state, err := sess.ctl.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	tr.state = state
}

func (tr *cutTrace) mustEqual(t testing.TB, want *cutTrace) {
	t.Helper()
	for k := range want.decisions {
		if tr.decisions[k] != want.decisions[k] {
			t.Fatalf("decision %d diverged: %v, uninterrupted %v", k, tr.decisions[k], want.decisions[k])
		}
		if tr.spent[k] != want.spent[k] {
			t.Fatalf("spend diverged at %d: %.17g, uninterrupted %.17g", k, tr.spent[k], want.spent[k])
		}
	}
	if !reflect.DeepEqual(tr.estimates, want.estimates) {
		t.Fatal("final arm estimates differ from the uninterrupted run's")
	}
	if !bytes.Equal(tr.state, want.state) {
		t.Fatal("final MarshalState differs from the uninterrupted run's")
	}
}

const cutKey = "cut-session"

func cutRegister(t testing.TB, srv *Server, seed int64, iters int) *session {
	t.Helper()
	resp, err := srv.Register(wire.RegisterRequest{
		Tenant: "t", App: "radar", Platform: "Tablet", Key: cutKey,
		Iterations: iters, Factor: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, werr := srv.lookup(resp.SessionID)
	if werr != nil {
		t.Fatal(werr)
	}
	return sess
}

// TestCheckpointCutPointsBitIdentical is the property the checkpointed
// durable form rests on: cut a session anywhere — before the first
// iteration, either side of a checkpoint, with an iteration armed, amid
// failed meter readings, under a metering daemon — carry it across the
// cut by snapshot→restore or by export→adopt, run it to the end, and
// nothing the governor decides or holds differs from the run that was
// never interrupted.
func TestCheckpointCutPointsBitIdentical(t *testing.T) {
	const K = checkpointEvery
	const total = 2*K + 300
	type cut struct {
		at    int
		armed bool
	}
	cuts := []cut{{at: 0}, {at: 1}, {at: K - 1}, {at: K}, {at: K + 1}, {at: K + 3, armed: true},
		{at: 2 * K, armed: true}, {at: 2*K + 7}}
	regimes := []cutRegime{
		{seed: 7},
		{seed: 11, errEvery: 5},
		{seed: 13, meter: true},
		{seed: 17, meter: true, errEvery: 7},
	}
	for _, re := range regimes {
		rigFor := func() *measure.SimBackend {
			if re.meter {
				return newCutRig(t, re.seed)
			}
			return nil
		}
		ref := &cutTrace{}
		{
			srv := cutServer(t, rigFor())
			sess := cutRegister(t, srv, re.seed, total)
			ref.drive(t, srv, sess, testbed(t, "radar", "Tablet").Machine(), re, 0, total)
			ref.finish(t, sess)
			if len(sess.log) > K || sess.base+len(sess.log) != total {
				t.Fatalf("uninterrupted session retains %d records from %d after %d iterations", len(sess.log), sess.base, total)
			}
		}
		for _, c := range cuts {
			for _, how := range []string{"restore", "adopt"} {
				t.Run(fmt.Sprintf("%+v/cut=%d,armed=%v/%s", re, c.at, c.armed, how), func(t *testing.T) {
					rig := rigFor()
					got := &cutTrace{}
					m := testbed(t, "radar", "Tablet").Machine()
					src := cutServer(t, rig)
					sess := cutRegister(t, src, re.seed, total)
					got.drive(t, src, sess, m, re, 0, c.at)
					if c.armed {
						// The bracket opened here is lost with the daemon; the
						// client opens it again on the far side at the same time.
						if _, werr := sess.next(wire.NextRequest{NowS: m.ClockS}, monoNS()); werr != nil {
							t.Fatal(werr)
						}
					}

					dst := cutServer(t, rig)
					var moved *session
					switch how {
					case "restore":
						var snap bytes.Buffer
						if err := src.Snapshot(&snap); err != nil {
							t.Fatal(err)
						}
						if err := dst.Restore(&snap); err != nil {
							t.Fatal(err)
						}
						moved = dst.sessions.byKey(cutKey)
					case "adopt":
						x := src.Export(nil)[0]
						if x.Done != c.at {
							t.Fatalf("export reports %d iterations done at cut %d", x.Done, c.at)
						}
						wantRecs := c.at
						if c.at >= K {
							wantRecs = c.at%K + 1
						}
						if len(x.NewIters) != wantRecs || (c.at >= K) != (wantRecs > 0 && x.NewIters[0].State != nil) {
							t.Fatalf("export at cut %d ships %d records, want %d (checkpoint first: %v)", c.at, len(x.NewIters), wantRecs, c.at >= K)
						}
						// Across the wire, as the coordinator's adopt push goes.
						raw, err := json.Marshal(wire.AdoptSession{Key: x.Key, Reg: x.Reg, GrantJ: x.GrantJ, SpentJ: x.SpentJ, Log: x.NewIters})
						if err != nil {
							t.Fatal(err)
						}
						var push wire.AdoptSession
						if err := json.Unmarshal(raw, &push); err != nil {
							t.Fatal(err)
						}
						id, err := dst.Adopt(push)
						if err != nil {
							t.Fatal(err)
						}
						moved, _ = dst.lookup(id)
					}
					if moved == nil {
						t.Fatal("session did not survive the cut")
					}
					if at := dst.Export(nil)[0]; at.Done != c.at || (c.at > 0 && at.SpentJ != got.spent[c.at-1]) {
						t.Fatalf("rebuilt session stands at %d iterations / %.17g J, source at %d", at.Done, at.SpentJ, c.at)
					}
					got.drive(t, dst, moved, m, re, c.at, total)
					got.finish(t, moved)
					got.mustEqual(t, ref)
				})
			}
		}
	}
}

// TestSessionLogBounded pins the memory half: however long a session
// runs, it retains at most checkpointEvery records, in a backing array
// that stops growing after the first checkpoint.
func TestSessionLogBounded(t *testing.T) {
	const K = checkpointEvery
	srv := cutServer(t, nil)
	sess := cutRegister(t, srv, 3, 50*K+1)
	m := testbed(t, "radar", "Tablet").Machine()
	tr := &cutTrace{}
	tr.drive(t, srv, sess, m, cutRegime{}, 0, 2*K)
	logCap, ckptCap := cap(sess.log), cap(sess.ckpt)
	for done := 2 * K; done < 50*K; done += K / 2 {
		tr.drive(t, srv, sess, m, cutRegime{}, done, done+K/2)
		if len(sess.log) > K {
			t.Fatalf("after %d settles the log holds %d records, want at most %d", done+K/2, len(sess.log), K)
		}
	}
	if sess.base+len(sess.log) != 50*K || sess.log[0].State == nil {
		t.Fatalf("log covers [%d,%d) with checkpoint %v, want it to end at %d behind a checkpoint",
			sess.base, sess.base+len(sess.log), sess.log[0].State != nil, 50*K)
	}
	if cap(sess.log) != logCap {
		t.Errorf("log backing array grew from %d to %d records", logCap, cap(sess.log))
	}
	// Radar on Tablet has few arms and pulls them all early, so the blob
	// has reached its full size by the second checkpoint.
	if cap(sess.ckpt) != ckptCap {
		t.Errorf("checkpoint buffer grew from %d to %d bytes", ckptCap, cap(sess.ckpt))
	}
}

// TestExportCursor pins the absolute-index contract the heartbeat relies
// on: a cursor at Done gets nothing, one inside the tail gets the rest
// of the tail, one at or behind the checkpoint gets the checkpoint and
// the whole tail, and a handed-out checkpoint does not alias the buffer
// the next checkpoint overwrites.
func TestExportCursor(t *testing.T) {
	const K = checkpointEvery
	srv := cutServer(t, nil)
	sess := cutRegister(t, srv, 5, 4*K)
	m := testbed(t, "radar", "Tablet").Machine()
	tr := &cutTrace{}
	tr.drive(t, srv, sess, m, cutRegime{}, 0, K+10)
	export := func(from int) SessionExport { return srv.Export(map[string]int{sess.id: from})[0] }

	if x := export(K + 10); x.Done != K+10 || len(x.NewIters) != 0 {
		t.Fatalf("cursor at Done: %d records, done %d", len(x.NewIters), x.Done)
	}
	if x := export(K + 4); len(x.NewIters) != 6 || x.NewIters[0].State != nil {
		t.Fatalf("cursor in the tail: %d records, checkpoint %v", len(x.NewIters), x.NewIters[0].State != nil)
	}
	for _, from := range []int{0, 17, K - 1} {
		if x := export(from); len(x.NewIters) != 11 || x.NewIters[0].State == nil {
			t.Fatalf("cursor %d behind the checkpoint: %d records, checkpoint %v", from, len(x.NewIters), len(x.NewIters) > 0 && x.NewIters[0].State != nil)
		}
	}
	if x := export(K + 99); len(x.NewIters) != 0 {
		t.Fatalf("cursor past Done: %d records", len(x.NewIters))
	}
	held := export(0).NewIters[0].State
	before := bytes.Clone(held)
	tr.drive(t, srv, sess, m, cutRegime{}, K+10, 2*K+1)
	if !bytes.Equal(held, before) {
		t.Fatal("an exported checkpoint changed when the session checkpointed again")
	}
}

// TestRestoreCostIndependentOfUptime is the point of the exercise: a
// session a hundred times older retains the same number of records,
// snapshots to the same size, and restores in the same — small — time.
func TestRestoreCostIndependentOfUptime(t *testing.T) {
	const K = checkpointEvery
	young, old := 10_000, 10_000+967*K // ≈1e6, and the same distance past a checkpoint
	if testing.Short() || raceSlowdown > 1 {
		old = 10_000 + 90*K // a million settles is ~1 s plain, ~25 s under the race detector
	}
	type cost struct {
		records, snapBytes int
		restore            time.Duration
	}
	measure := func(iters int) cost {
		srv := cutServer(t, nil)
		sess := cutRegister(t, srv, 9, iters+1)
		(&cutTrace{}).drive(t, srv, sess, testbed(t, "radar", "Tablet").Machine(), cutRegime{errEvery: 11}, 0, iters)
		var snap bytes.Buffer
		if err := srv.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		c := cost{records: len(sess.log), snapBytes: snap.Len(), restore: time.Hour}
		for try := 0; try < 5; try++ {
			dst := cutServer(t, nil)
			start := time.Now()
			if err := dst.Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			c.restore = min(c.restore, time.Since(start))
			if x := dst.Export(nil)[0]; x.Done != iters || x.SpentJ != sess.spent() {
				t.Fatalf("restored at %d iterations / %.17g J, source at %d / %.17g J", x.Done, x.SpentJ, iters, sess.spent())
			}
		}
		return c
	}
	a, b := measure(young), measure(old)
	t.Logf("%d iterations: %d records, %d-byte snapshot, restored in %v", young, a.records, a.snapBytes, a.restore)
	t.Logf("%d iterations: %d records, %d-byte snapshot, restored in %v", old, b.records, b.snapBytes, b.restore)
	if a.records != b.records || a.records > K {
		t.Errorf("retained log: %d records at %d iterations, %d at %d; want equal and at most %d", a.records, young, b.records, old, K)
	}
	if b.snapBytes > a.snapBytes+a.snapBytes/10 {
		t.Errorf("snapshot grew with uptime: %d bytes at %d iterations, %d at %d", a.snapBytes, young, b.snapBytes, old)
	}
	if limit := 50 * time.Millisecond * raceSlowdown; b.restore > limit {
		t.Errorf("restoring a session %d iterations old took %v, want under %v", old, b.restore, limit)
	}
}
