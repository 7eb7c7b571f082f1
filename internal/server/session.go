package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"jouleguard"
	"jouleguard/internal/measure"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// meterHook is the sessions' shared handle on the daemon's measurement
// service (Config.Meter). In meter mode every iteration is bracketed by
// an attribution window — opened at Next with the session's expected
// draw as its weight, closed at Done — and the joules the pipeline
// attributed to the window are what the ledger debits; the client's own
// reading is never billed. stim, when set (simulated backend), feeds the
// client's reported energy delta into the meter as physical stimulus
// before the settling sample, standing in for the hardware the
// simulator does not have.
type meterHook struct {
	// mu serializes settles so one session's stimulus cannot land
	// between another session's deposit and the sample meant to observe
	// it — the deposit+advance+sample triple is atomic per iteration.
	mu   sync.Mutex
	svc  *measure.Service
	stim func(joules, durS float64)
}

// open brackets the start of an iteration on a hardware meter; weight is
// the session's expected power draw, the share key when windows overlap.
// With a stimulus-driven meter (virtual timeline) this is a no-op: the
// virtual clock serializes every session's work, so windows there are
// opened exclusively inside settle — bracketing Next would hand each
// bystander a cut of the settling session's deposit.
func (h *meterHook) open(id string, weight float64) {
	if h.stim != nil {
		return
	}
	h.svc.OpenWindow(id, weight)
}

// settle ends an iteration: apply the stimulus (if any), force a
// synchronous sample so the window is charged up to this instant, and
// close it. ok is false when the iteration could not be measured — a
// restart lost the hardware window, or a stimulus-driven meter got no
// stimulus (the client's own counter failed).
//
// On the stimulus path the open+deposit+advance+sample+close run as one
// critical section, so exactly one window is open during the sample and
// the entire above-baseline delta is attributed to the session that
// physically burned it.
func (h *meterHook) settle(id string, weight, stimJ, stimDurS float64) (joules float64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stim != nil {
		if stimJ <= 0 || stimDurS <= 0 {
			return 0, false
		}
		h.svc.OpenWindow(id, weight)
		h.stim(stimJ, stimDurS)
	}
	h.svc.Sample()
	return h.svc.CloseWindow(id)
}

// discard drops a window without billing anyone — session teardown with
// an iteration still armed.
func (h *meterHook) discard(id string) { h.svc.CloseWindow(id) }

// sessionState is the wire-visible lifecycle of one session:
//
//	           POST next            POST done
//	 +------+ ----------> +-------+ ----------> (iters left: idle)
//	 | idle |             | armed |
//	 +------+ <---------- +-------+ ----------> +----------+
//	    |        done            \               | complete |
//	    |                         \ daemon dies  +----------+
//	    |  DELETE / idle expiry    \ before done      |  DELETE / expiry
//	    v                           v                 v
//	+--------+-----------+     restored as idle   (released)
//	| closed  |  expired |     (client re-brackets the lost iteration)
//	+--------+-----------+
//
// Only idle/armed/complete sessions hold budget; closing or expiring
// releases the grant back to the broker.
type sessionState int

const (
	stateIdle sessionState = iota
	stateArmed
	stateComplete
	stateClosed
	stateExpired
)

// String names the state for the wire and the logs.
func (s sessionState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateArmed:
		return "armed"
	case stateComplete:
		return "complete"
	case stateClosed:
		return "closed"
	case stateExpired:
		return "expired"
	}
	return "unknown"
}

// iterRec is one completed iteration in the session's write-ahead log:
// exactly the client-supplied inputs the controller consumed, so a
// restored daemon can step them through a controller and land on
// bit-identical state. The record is shared with the cluster protocol
// (heartbeat session reports, failover adoption) as wire.IterRec.
type iterRec = wire.IterRec

// checkpointEvery is how many settles pass between checkpoints of a
// session's governor stack, and so the bound on its retained log. A
// checkpoint of a 1,024-arm session with nearly every arm pulled is
// ~36 KB (the generator's 4.9 KB register included) and cost ~11.5 us to
// write without the register; spread over 1,024 settles that is ~11 ns
// each, under 1% of the ~1.4 us settle, and a restore steps through 512
// records on average instead of the session's whole history.
const checkpointEvery = 1024

// session wraps one tenant's governor — a JouleGuard runtime behind an
// OnlineController — and adapts it to the wire: the client's clock and
// meter readings arrive in request bodies and are fed to the controller
// through the pending sample, so the controller's hardened sensing path
// (guard, outage reconciliation, model fallback) is reused verbatim.
type session struct {
	mu    sync.Mutex
	id    string
	num   uint32 // numeric id for v2 frame headers (0 = v1-only)
	reg   wire.RegisterRequest
	grant Grant

	// The governor stack. A terminal session has none: teardown freezes
	// what introspection still reports into final and drops the stack,
	// which is most of a session's memory (~60 KB on a 1,024-arm platform)
	// and would otherwise sit in the terminal-retention ring.
	tb    *jouleguard.Testbed
	gov   *jouleguard.Runtime
	ctl   *jouleguard.OnlineController
	final tally

	state   sessionState
	pending struct {
		now    float64
		energy float64
		eerr   bool
	}
	armedNow float64
	// The durable form of the governor stack: log holds the iterations
	// from absolute index base on, and once the session has passed a
	// checkpoint, log[0].State (backed by ckpt, rewritten in place) is
	// the stack's state right after iteration base. Anything that hands
	// the log out copies the State bytes.
	log  []iterRec
	base int
	ckpt []byte

	// Idle expiry. Next and Done read no clock: they set touched, which
	// the next expiry sweep turns into a stamp at its own time
	// (idleSince). Registration stamps lastTouch.
	lastTouch time.Time
	touched   bool

	// Meter mode (nil hook = client-supplied readings). meterCumJ is the
	// session's synthesized cumulative counter — the sum of every closed
	// window's attributed joules, fed to the controller in place of the
	// client's reading so its guard sees a monotone series. lastClientJ
	// anchors the client's cumulative report so each iteration's delta
	// can be deposited as simulator stimulus.
	meter       *meterHook
	meterW      float64 // attribution weight of the armed iteration: the chosen config's model draw
	meterCumJ   float64
	lastClientJ float64

	// sink is the session's telemetry, owned by mu: the tally of its
	// counter and histogram events (the daemon's decision latency among
	// them) and its own decision window, which the stack writes inside
	// Next and Done under mu. It is nil until
	// installLiveSink (so a replayed log is not counted); teardown keeps
	// it, so a terminal session's last decisions stay readable until
	// retire releases it (closeWindow).
	sink *telemetry.SessionSink

	// QoS wiring. shedded marks a session killed by the tenant-protection
	// engine: introspection reads "killed" and post-mortem wire calls
	// answer tenant_shed (back off and re-register) instead of
	// session_closed. spend, when set, is the tenant's cell in the
	// broker, into which each settled iteration's energy delta streams;
	// lastSpentJ is the accounted total at the previous settle.
	shedded    bool
	lastSpentJ float64
	spend      *spendCell
}

// newSession builds the governor stack for an admitted registration,
// reporting no telemetry until installLiveSink attaches its sink.
func newSession(id string, reg wire.RegisterRequest, grant Grant, meter *meterHook, now time.Time) (*session, error) {
	tb, err := jouleguard.NewTestbed(reg.App, reg.Platform)
	if err != nil {
		return nil, err
	}
	gov, err := tb.NewJouleGuardBudget(grant.GrantJ, reg.Iterations, jouleguard.Options{Seed: reg.Seed})
	if err != nil {
		return nil, err
	}
	s := &session{id: id, num: sessionNum(id),
		reg: reg, grant: grant, tb: tb, gov: gov, meter: meter, lastTouch: now}
	ctl, err := jouleguard.NewOnlineGuarded(gov,
		s.readPendingEnergy, s.readPendingNow,
		jouleguard.SensorGuardConfig{ModelPower: tb.DefaultPower})
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	return s, nil
}

// sessionNum derives the v2 frame-header id from the "s-%06d" string id
// (snapshot restore and adoption mint sessions from logged ids, so
// deriving rather than storing keeps the two forms consistent across
// every path). Ids that do not parse, or overflow uint32, yield 0 —
// such a session is served over v1 only.
func sessionNum(id string) uint32 {
	digits, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	if err != nil {
		return 0
	}
	return uint32(n)
}

// readPendingEnergy and readPendingNow feed the controller the last
// wire-reported sample; callers hold s.mu for the whole Next/Done call,
// so the pending fields are stable while the controller reads them.
func (s *session) readPendingEnergy() (float64, error) {
	if s.pending.eerr {
		return 0, fmt.Errorf("server: client reported an energy-meter failure")
	}
	return s.pending.energy, nil
}

func (s *session) readPendingNow() float64 { return s.pending.now }

// installLiveSink attaches the session's live telemetry sink, owned by
// s.mu, whose decision-latency samples fold into latency: a new
// session's before it is published, a rebuilt one's after its log has
// replayed, so replayed iterations are not counted twice.
func (s *session) installLiveSink(tel *telemetry.Telemetry, latency *telemetry.Histogram) {
	sink := telemetry.WithSession(tel, s.id, s.reg.Iterations, &s.mu, latency)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = sink
	s.gov.SetTelemetry(sink)
	s.ctl.SetTelemetry(sink)
}

func errBadSequence(msg string) *wire.Error { return &wire.Error{Code: wire.CodeBadSequence, Msg: msg} }
func errSessionClosed(msg string) *wire.Error {
	return &wire.Error{Code: wire.CodeSessionClosed, Msg: msg}
}
func errLeaseExpired() *wire.Error {
	return &wire.Error{Code: wire.CodeLeaseExpired, Msg: "node budget lease expired; awaiting renewal or failover"}
}

// checkLive rejects calls on torn-down sessions; callers hold s.mu.
func (s *session) checkLive() *wire.Error {
	if s.shedded {
		return &wire.Error{Code: wire.CodeTenantShed,
			Msg: "session killed by tenant shedding; wait for the tenant to de-escalate, then re-register"}
	}
	switch s.state {
	case stateClosed:
		return errSessionClosed("session closed")
	case stateExpired:
		return errSessionClosed("session expired by the idle watchdog")
	}
	return nil
}

// next runs the wire Next call: decide the upcoming iteration's
// configurations and start its interval on the client's clock. start is
// the call's monotonic stamp (monoNS): the decision latency the sink
// tallies runs from it to the end of the call, the meter window's open
// included.
func (s *session) next(req wire.NextRequest, start int64) (wire.NextResponse, *wire.Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if werr := s.checkLive(); werr != nil {
		return wire.NextResponse{}, werr
	}
	switch s.state {
	case stateComplete:
		return wire.NextResponse{}, &wire.Error{Code: wire.CodeSessionComplete,
			Msg: fmt.Sprintf("workload of %d iterations already complete; close the session to reclaim its budget", s.reg.Iterations)}
	case stateArmed:
		return wire.NextResponse{}, errBadSequence("Next while an iteration is already in flight (Done not yet reported)")
	}
	s.pending.now, s.pending.eerr = req.NowS, false
	app, sys := s.ctl.Next()
	s.armedNow = req.NowS
	s.state = stateArmed
	s.touched = true
	if s.meter != nil {
		// The attribution weight is the CHOSEN operating point's model
		// draw, not the app default: concurrent windows split each
		// sample's energy by weight, so weighting by the actuated power
		// keeps a tenant's debit coupled to its own knob — a throttled
		// session must not keep paying the fleet-average rate.
		s.meterW = s.tb.Platform.Power(sys, s.tb.Profile)
		s.meter.open(s.id, s.meterW)
	}
	if s.sink != nil {
		s.sink.ObserveLatency(time.Duration(monoNS() - start).Seconds())
	}
	return wire.NextResponse{Iter: s.ctl.Iterations(), AppConfig: app, SysConfig: sys}, nil
}

// done runs the wire Done call: deliver the client's measurements to the
// controller and settle the iteration.
func (s *session) done(req wire.DoneRequest) (wire.DoneResponse, *wire.Error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if werr := s.checkLive(); werr != nil {
		return wire.DoneResponse{}, werr
	}
	if s.state != stateArmed {
		return wire.DoneResponse{}, errBadSequence("Done without a pending Next")
	}
	if math.IsNaN(req.Accuracy) || math.IsInf(req.Accuracy, 0) {
		// Neither wire can carry one, but an in-process caller can, and a
		// non-finite accuracy would poison the mean every introspection
		// reply encodes. Refused before anything moves: still armed.
		return wire.DoneResponse{}, &wire.Error{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("accuracy %v is not finite", req.Accuracy)}
	}
	energyJ, energyErr := req.EnergyJ, req.EnergyErr
	if s.meter != nil {
		energyJ, energyErr = s.meterSettle(req)
	}
	s.pending.now, s.pending.energy, s.pending.eerr = req.NowS, energyJ, energyErr
	if err := s.ctl.Done(req.Accuracy); err != nil {
		// The armed check rules out sequencing errors; a non-finite clock
		// is refused with the session still armed, so the client may retry.
		return wire.DoneResponse{}, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	}
	// The log records what the controller consumed (the meter-attributed
	// value in meter mode), so a restore replays to bit-identical state.
	s.logLocked(iterRec{
		NextNow: s.armedNow, DoneNow: req.NowS,
		EnergyJ: energyJ, EnergyErr: energyErr, Accuracy: req.Accuracy,
		ClientJ: s.lastClientJ,
	})
	if s.spend != nil {
		// Stream the settle into the tenant's spend cell (lock order
		// session.mu -> cell.mu; the broker never takes session locks).
		// The iteration's wall time comes from the client clock that also
		// paces the controller.
		spent := s.ctl.EnergyAccounted()
		s.spend.note(spent-s.lastSpentJ, req.NowS-s.armedNow)
		s.lastSpentJ = spent
	}
	if s.ctl.Iterations() >= s.reg.Iterations {
		s.state = stateComplete
	} else {
		s.state = stateIdle
	}
	s.touched = true
	return s.doneResponseLocked(), nil
}

// meterSettle closes the iteration's attribution window and swaps the
// pipeline's verdict in for the client's reading: the client's
// cumulative report contributes only its delta, deposited into a
// simulated meter as the physical work the "hardware" just executed;
// what the ledger debits is whatever survived calibration, the
// plausibility gate and weight-shared attribution. Callers hold s.mu.
func (s *session) meterSettle(req wire.DoneRequest) (cumJ float64, eerr bool) {
	stimJ := -1.0
	if !req.EnergyErr {
		if d := req.EnergyJ - s.lastClientJ; d > 0 {
			stimJ = d
		}
		s.lastClientJ = req.EnergyJ
	}
	w, ok := s.meter.settle(s.id, s.meterW, stimJ, req.NowS-s.armedNow)
	if !ok {
		// The iteration could not be measured (a restart rebuilt the
		// session mid-flight, or a stimulus meter got no stimulus):
		// report a meter outage for this interval and let the
		// controller's own guard substitute its model estimate.
		return s.meterCumJ, true
	}
	s.meterCumJ += w
	return s.meterCumJ, false
}

// logLocked appends a settled iteration to the log and, every
// checkpointEvery settles, folds the log into a fresh checkpoint: the
// stack's state is written over the previous one and the log is cut down
// to the record that now carries it. Callers hold s.mu and have just
// settled rec, so no iteration is in flight.
func (s *session) logLocked(rec iterRec) {
	s.log = append(s.log, rec)
	if s.ctl.Iterations()%checkpointEvery != 0 {
		return
	}
	state, err := s.ctl.AppendState(s.ckpt[:0])
	if err != nil {
		// Unreachable for a session (a Runtime governor, nothing in
		// flight). The uncut log is still a complete durable form.
		return
	}
	s.ckpt = state
	rec.State = state
	s.base += len(s.log) - 1
	s.log = append(s.log[:0], rec)
}

// tally is what the wire reports of a governor stack's state: the ledger
// and the learner's standing. estimates is filled only on the frozen copy
// a terminal session keeps, and there holds only the arms the session
// measured — an arm never pulled still carries the platform's prior.
type tally struct {
	iterDone   int
	spentJ     float64
	meanAcc    float64
	degraded   bool
	infeasible bool
	estimates  []wire.ArmEstimate
}

// tallyLocked reads the tally off the live stack, or returns the one
// teardown froze; callers hold s.mu.
func (s *session) tallyLocked() tally {
	if s.ctl == nil {
		return s.final
	}
	return tally{
		iterDone:   s.ctl.Iterations(),
		spentJ:     s.ctl.EnergyAccounted(),
		meanAcc:    s.ctl.MeanAccuracy(),
		degraded:   s.gov.Degraded(),
		infeasible: s.gov.Infeasible(),
	}
}

// estimatesLocked lists the live stack's per-arm estimates, every arm or
// only those with observations; callers hold s.mu.
func (s *session) estimatesLocked(pulledOnly bool) []wire.ArmEstimate {
	var arms []int
	n := s.gov.NumArms()
	if pulledOnly {
		arms = s.gov.PulledArms()
		n = len(arms)
	}
	if n == 0 {
		return nil
	}
	out := make([]wire.ArmEstimate, n)
	for i := range out {
		arm := i
		if pulledOnly {
			arm = arms[i]
		}
		rate, power, pulls := s.gov.ArmEstimate(arm)
		out[i] = wire.ArmEstimate{Arm: arm, Rate: rate, Power: power, Pulls: pulls}
	}
	return out
}

// doneResponseLocked assembles the ledger view; callers hold s.mu.
func (s *session) doneResponseLocked() wire.DoneResponse {
	t := s.tallyLocked()
	return wire.DoneResponse{
		IterationsDone:  t.iterDone,
		SpentJ:          t.spentJ,
		GrantRemainingJ: s.grant.GrantJ - t.spentJ,
		Degraded:        t.degraded,
		Infeasible:      t.infeasible,
		Complete:        s.state == stateComplete,
	}
}

// spent returns the energy the session's ledger has accounted so far.
func (s *session) spent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tallyLocked().spentJ
}

// teardown moves the session to a terminal state and reports what the
// broker should settle. It is idempotent; only the first call releases.
func (s *session) teardown(to sessionState) (spentJ float64, release bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateClosed || s.state == stateExpired {
		return 0, false
	}
	if s.meter != nil && s.state == stateArmed {
		// An armed teardown leaves an open attribution window; discard it
		// so the dead session stops absorbing shares of live samples.
		s.meter.discard(s.id)
	}
	s.state = to
	s.releaseStackLocked()
	return s.final.spentJ, true
}

// shed tears the session down on behalf of the tenant-protection
// engine. It mirrors teardown but marks the session shedded, so
// introspection reads "killed" and post-mortem wire calls answer
// tenant_shed — a retryable verdict telling the client to back off and
// re-register, not that its workload shape was wrong.
func (s *session) shed() (spentJ float64, release bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateClosed || s.state == stateExpired {
		return 0, false
	}
	if s.meter != nil && s.state == stateArmed {
		s.meter.discard(s.id)
	}
	s.state = stateExpired
	s.shedded = true
	s.releaseStackLocked()
	return s.final.spentJ, true
}

// releaseStackLocked frees a terminal session's governor stack and its
// durable form: the session is never stepped, snapshotted, reported or
// adopted again, but its record lingers in the registry's
// terminal-retention ring, where it answers introspection from the tally
// frozen here and its decision window from the decisions it last made.
// Callers hold s.mu.
func (s *session) releaseStackLocked() {
	s.final = s.tallyLocked()
	s.final.estimates = s.estimatesLocked(true)
	s.tb, s.gov, s.ctl = nil, nil, nil
	s.log, s.ckpt = nil, nil
}

// closeWindow releases the session's decision window: it leaves
// /decisions and its ring is freed. The server calls it once newer
// terminal sessions have taken the window's place (retire), or when it
// backs a registration out.
func (s *session) closeWindow() {
	s.mu.Lock()
	sink := s.sink
	s.sink = nil
	s.mu.Unlock()
	if sink != nil {
		sink.Close()
	}
}

// idleSince reports the last wire activity as of a sweep at now, and
// whether the session is live; the expiry watchdog compares it against
// the session's timeout. A Next or Done since the last sweep is dated
// now: neither reads a clock, so a session expires no earlier than its
// timeout after its last call and at most one sweep interval later.
func (s *session) idleSince(now time.Time) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.touched {
		s.lastTouch, s.touched = now, false
	}
	return s.lastTouch, s.liveLocked()
}

// live reports whether the session still holds budget.
func (s *session) live() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveLocked()
}

// liveLocked is live for a caller holding s.mu.
func (s *session) liveLocked() bool {
	return s.state == stateIdle || s.state == stateArmed || s.state == stateComplete
}

// inFlight reports whether a wire iteration is bracketed (armed); the
// drain loop waits for in-flight iterations to settle before snapshot.
func (s *session) inFlight() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == stateArmed
}

// info assembles the introspection view.
func (s *session) info(includeEstimates bool) wire.SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	state := s.state.String()
	if s.shedded {
		state = "killed"
	}
	t := s.tallyLocked()
	si := wire.SessionInfo{
		SessionID:   s.id,
		Tenant:      s.reg.Tenant,
		Weight:      s.grant.Weight,
		App:         s.reg.App,
		Platform:    s.reg.Platform,
		State:       state,
		Iterations:  s.reg.Iterations,
		IterDone:    t.iterDone,
		GrantJ:      s.grant.GrantJ,
		SpentJ:      t.spentJ,
		MinAccuracy: s.reg.MinAccuracy,
		MeanAcc:     t.meanAcc,
		Degraded:    t.degraded,
		Infeasible:  t.infeasible,
	}
	if includeEstimates {
		if s.gov != nil {
			si.Estimates = s.estimatesLocked(false)
		} else {
			si.Estimates = t.estimates
		}
	}
	return si
}

// replay folds one logged record into a session being rebuilt — the one
// loop body behind snapshot restore and adoption. A record carrying a
// checkpoint restores it into the still-fresh governor stack; a record
// without one steps the stack through the iteration, bypassing the wire
// state checks (the log was produced by calls that passed them) but
// using the exact same feed. Either way the session ends where the
// source stood after that iteration, bit for bit.
func (s *session) replay(rec iterRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.State != nil {
		// RestoreState itself refuses a controller that has already run,
		// which is what confines checkpoints to the head of a log.
		if err := s.ctl.RestoreState(rec.State); err != nil {
			return fmt.Errorf("server: restoring session %s: %w", s.id, err)
		}
		n := s.ctl.Iterations()
		if n < 1 {
			return fmt.Errorf("server: restoring session %s: checkpoint precedes the first iteration", s.id)
		}
		s.ckpt = append(s.ckpt[:0], rec.State...)
		rec.State = s.ckpt
		if cap(s.log) < checkpointEvery+1 {
			// The tail that follows is at most checkpointEvery records:
			// hold them without growing the log copy by copy.
			s.log = make([]iterRec, 0, checkpointEvery+1)
		}
		s.base, s.log = n-1, append(s.log[:0], rec)
	} else {
		s.pending.now, s.pending.eerr = rec.NextNow, false
		s.ctl.Next()
		s.pending.now, s.pending.energy, s.pending.eerr = rec.DoneNow, rec.EnergyJ, rec.EnergyErr
		if err := s.ctl.Done(rec.Accuracy); err != nil {
			return fmt.Errorf("server: replaying session %s: %w", s.id, err)
		}
		s.logLocked(rec)
	}
	s.armedNow = rec.NextNow
	// Restore the settle baseline without re-noting spend: the replayed
	// joules were already booked by the node that first served them.
	s.lastSpentJ = s.ctl.EnergyAccounted()
	if s.meter != nil {
		// Meter-mode records carry the synthesized cumulative series (on
		// an unmeasured iteration too: it logs the series unchanged) and
		// the client's own counter; resume both where the log left off.
		// (A version-1 record has no client counter: the first stimulus
		// after restoring one spans the client's whole history, and the
		// gate judges it like any other sample.)
		s.meterCumJ, s.lastClientJ = rec.EnergyJ, rec.ClientJ
	}
	if s.ctl.Iterations() >= s.reg.Iterations {
		s.state = stateComplete
	} else {
		s.state = stateIdle
	}
	return nil
}

// logFromLocked copies the log from absolute iteration index from on. A
// cursor at or behind the checkpoint gets the checkpoint record and the
// whole tail, since the iterations before it are gone. Callers hold s.mu.
func (s *session) logFromLocked(from int) []iterRec {
	i := min(max(from-s.base, 0), len(s.log))
	recs := make([]iterRec, len(s.log)-i)
	copy(recs, s.log[i:])
	if i == 0 && len(recs) > 0 {
		recs[0].State = bytes.Clone(recs[0].State)
	}
	return recs
}

// snapshotView copies the session's durable state (the snapshotter
// takes s.mu itself, one session at a time).
func (s *session) snapshotView() (reg wire.RegisterRequest, grant Grant, log []iterRec, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live = s.state == stateIdle || s.state == stateArmed || s.state == stateComplete
	return s.reg, s.grant, s.logFromLocked(0), live
}

// SessionExport is one session's incremental state for the cluster
// heartbeat: registration, ledger, and the iteration log from a given
// absolute index — everything the fleet coordinator needs to restore the
// session elsewhere. Done is the total settled-iteration count; NewIters
// ends at it, and starts with the checkpoint record when the requested
// index lies at or behind the session's latest checkpoint.
type SessionExport struct {
	ID, Key   string
	Reg       wire.RegisterRequest
	GrantJ    float64
	ImportedJ float64
	SpentJ    float64
	Done      int
	Live      bool
	Complete  bool
	NewIters  []wire.IterRec
}

// export copies the session's reportable state, with the log trimmed to
// iterations at absolute index >= from (what the coordinator has not yet
// acked).
func (s *session) export(from int) SessionExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tallyLocked()
	return SessionExport{
		ID:        s.id,
		Key:       s.reg.Key,
		Reg:       s.reg,
		GrantJ:    s.grant.GrantJ,
		ImportedJ: s.grant.ImportedJ,
		SpentJ:    t.spentJ,
		Done:      t.iterDone,
		Live:      s.state == stateIdle || s.state == stateArmed || s.state == stateComplete,
		Complete:  s.state == stateComplete,
		NewIters:  s.logFromLocked(from),
	}
}

// localSpent is the energy accounted against this node's lease: total
// spend minus whatever was imported with an adopted session.
func (s *session) localSpent() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.tallyLocked().spentJ - s.grant.ImportedJ
	if sp < 0 {
		sp = 0
	}
	return sp
}

// attachView reports what a register-by-key attach needs; ok is false
// when the session is no longer live (the key may be re-registered).
func (s *session) attachView() (resp wire.RegisterResponse, reg wire.RegisterRequest, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateClosed || s.state == stateExpired {
		return wire.RegisterResponse{}, s.reg, false
	}
	return wire.RegisterResponse{
		SessionID:      s.id,
		SessionNum:     s.num,
		GrantJ:         s.grant.GrantJ,
		Iterations:     s.reg.Iterations,
		AppConfigs:     s.tb.App.NumConfigs(),
		SysConfigs:     s.tb.Platform.NumConfigs(),
		Resumed:        true,
		IterationsDone: s.ctl.Iterations(),
	}, s.reg, true
}

// setGrant swaps in the broker's final grant record (used by Adopt,
// where the governor is built and replayed before admission settles the
// commitment arithmetic).
func (s *session) setGrant(g Grant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.grant = g
}
