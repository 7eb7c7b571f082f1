package core

import (
	"fmt"

	"jouleguard/internal/ckpt"
)

// A standalone checkpoint of one Runtime, for the round-trip tests: the
// product only embeds EncodeState/DecodeState in the online controller's
// blob.
const (
	stateKind    = 'R'
	stateVersion = 2
)

// MarshalState returns the runtime's state as a checkpoint blob.
func (r *Runtime) MarshalState() []byte {
	enc := ckpt.NewEnc(nil, stateKind, stateVersion)
	r.EncodeState(enc)
	return enc.Seal()
}

// RestoreState loads a MarshalState blob into a Runtime fresh from New.
// On error the runtime may be partly written and must be discarded.
func (r *Runtime) RestoreState(blob []byte) error {
	d, err := ckpt.Open(blob, stateKind)
	if err != nil {
		return fmt.Errorf("core: restoring runtime state: %w", err)
	}
	if version := d.Version(); version < 1 || version > stateVersion {
		return fmt.Errorf("core: runtime state version %d, want 1..%d", version, stateVersion)
	}
	r.DecodeState(d)
	if err := d.Close(); err != nil {
		return fmt.Errorf("core: restoring runtime state: %w", err)
	}
	return nil
}
