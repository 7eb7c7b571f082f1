package jouleguard

import (
	"errors"
	"fmt"
	"math"

	"jouleguard/internal/ckpt"
)

const (
	onlineStateKind = 'O'
	// onlineStateVersion 2 adds the runtime's random register (core's
	// countedSource); a version-1 blob still restores, by re-seeding and
	// fast-forwarding the generator.
	onlineStateVersion = 2
	// maxErrText bounds the error strings a checkpoint may carry.
	maxErrText = 1 << 10
)

// checkpointed is what a Governor offers when its state can ride in the
// controller's checkpoint. The JouleGuard Runtime does; the comparison
// baselines do not.
type checkpointed interface {
	EncodeState(*ckpt.Enc)
	DecodeState(*ckpt.Dec)
}

// MarshalState returns the whole governed loop's state — the controller's
// interval accounting, its sensing guard and heartbeat window, and the
// governor's own state — as one checkpoint blob. Restored into a
// controller built the same way (RestoreState), it continues the run
// exactly: every later decision, verdict and ledger value matches the
// uninterrupted run bit for bit.
//
// A checkpoint is only ever cut between iterations: MarshalState fails
// while one is in flight (its start time belongs to a clock reading the
// restored process never made), and it fails for a governor that cannot
// be checkpointed. It never returns a partial state.
func (o *OnlineController) MarshalState() ([]byte, error) { return o.AppendState(nil) }

// AppendState is MarshalState appending to dst (a buffer the caller
// reuses from checkpoint to checkpoint). On error dst is returned
// unextended.
func (o *OnlineController) AppendState(dst []byte) ([]byte, error) {
	gov, ok := o.gov.(checkpointed)
	if !ok {
		return dst, fmt.Errorf("jouleguard: governor %T cannot be checkpointed", o.gov)
	}
	if o.started {
		return dst, fmt.Errorf("%w: checkpoint while an iteration is in flight", ErrOutOfSequence)
	}
	enc := ckpt.NewEnc(dst, onlineStateKind, onlineStateVersion)
	enc.Int(o.iter)
	enc.Float(o.accSum)
	enc.Float(o.startT)
	enc.Int(o.appCfg)
	enc.Int(o.sysCfg)
	enc.Int(o.prevApp)
	enc.Int(o.prevSys)
	enc.Bool(o.haveCfg)
	enc.Float(o.prevEnergy)
	enc.Bool(o.haveEnergy)
	enc.Float(o.lastGoodT)
	enc.Float(o.estSinceJ)
	enc.Float(o.lastBeatT)
	lastErr := ""
	if o.lastErr != nil {
		lastErr = o.lastErr.Error()
	}
	enc.String(truncate(lastErr))
	enc.Int(o.failStreak)
	enc.Int(o.failTotal)
	enc.Int(o.clockBack)
	enc.Int(o.seqErrs)
	enc.String(truncate(o.lastSeqErr))
	o.guard.EncodeState(enc)
	o.hb.EncodeState(enc)
	gov.EncodeState(enc)
	return enc.Seal(), nil
}

func truncate(s string) string {
	if len(s) > maxErrText {
		return s[:maxErrText]
	}
	return s
}

// RestoreState loads a MarshalState blob into a controller fresh from
// NewOnline/NewOnlineGuarded over a governor fresh from its own
// constructor, both built with the arguments the original was. A sensor
// error restores as its message (the original error value is gone with
// the process that held it). On error the controller and its governor
// may be partly written and must be discarded.
func (o *OnlineController) RestoreState(blob []byte) error {
	d, err := ckpt.Open(blob, onlineStateKind)
	if err != nil {
		return fmt.Errorf("jouleguard: restoring controller state: %w", err)
	}
	if version := d.Version(); version < 1 || version > onlineStateVersion {
		return fmt.Errorf("jouleguard: controller state version %d, want 1..%d", version, onlineStateVersion)
	}
	gov, ok := o.gov.(checkpointed)
	if !ok {
		return fmt.Errorf("jouleguard: governor %T cannot be checkpointed", o.gov)
	}
	if o.iter != 0 || o.started {
		return fmt.Errorf("jouleguard: controller already ran %d iterations; restore needs a fresh one", o.iter)
	}
	o.iter = d.Count(math.MaxInt)
	o.accSum = d.Float()
	o.startT = d.Float()
	o.appCfg = d.Int()
	o.sysCfg = d.Int()
	o.prevApp = d.Int()
	o.prevSys = d.Int()
	o.haveCfg = d.Bool()
	o.prevEnergy = d.Float()
	o.haveEnergy = d.Bool()
	o.lastGoodT = d.Float()
	o.estSinceJ = d.Float()
	o.lastBeatT = d.Float()
	o.lastErr = nil
	if msg := d.String(maxErrText); msg != "" {
		o.lastErr = errors.New(msg)
	}
	o.failStreak = d.Count(math.MaxInt)
	o.failTotal = d.Count(math.MaxInt)
	o.clockBack = d.Count(math.MaxInt)
	o.seqErrs = d.Count(math.MaxInt)
	o.lastSeqErr = d.String(maxErrText)
	o.guard.DecodeState(d)
	o.hb.DecodeState(d)
	gov.DecodeState(d)
	if err := d.Close(); err != nil {
		return fmt.Errorf("jouleguard: restoring controller state: %w", err)
	}
	return nil
}
