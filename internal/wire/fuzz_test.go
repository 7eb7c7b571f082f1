package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes through the v2 frame decoder and
// every payload parser, seeded with the frames the codec tests encode.
// Nothing may panic; a TNext, TDone or TDoneNext frame a parser accepts
// must carry only finite floats and re-encode byte for byte (the encoder
// is the only dialect the parsers speak), and so must an accepted TClose;
// a TErr frame's code byte must map through the error table, or read as
// bad_request when the table has no such byte. The JSON lifecycle
// payloads (TRegister, TRegisterResp, TCloseResp) only have to parse or
// refuse without panicking: JSON has many spellings of one value.
func FuzzDecoder(f *testing.F) {
	next := NextRequest{NowS: 12.375}
	traced := NextRequest{NowS: 1.5, TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef}
	done := DoneRequest{NowS: 13.5, EnergyJ: 101.25, Accuracy: 0.875, EnergyErr: true}
	tracedDone := DoneRequest{NowS: 2.5, EnergyJ: 7.25, Accuracy: 0.5, TraceID: 0xfeedfacefeedface, SpanID: 42}
	nextResp := NextResponse{Iter: 7, AppConfig: 3, SysConfig: 11}
	doneResp := DoneResponse{IterationsDone: 7, SpentJ: 55.5, GrantRemainingJ: 44.5, Degraded: true, Complete: true}
	nanDone := DoneRequest{NowS: 3.5, EnergyJ: 9.25, Accuracy: math.NaN()}
	reg := RegisterRequest{Tenant: "enc", Tier: "standard", Key: "k", App: "x264", Platform: "Server",
		Iterations: 32, Factor: 2, Seed: 7}
	regResp := RegisterResponse{SessionID: "s-000047", SessionNum: 47, GrantJ: 99.5, Iterations: 32,
		AppConfigs: 4, SysConfigs: 1024}
	closeResp := CloseResponse{SessionID: "s-000047", SpentJ: 80.25, ReclaimedJ: 19.25}
	seeds := []func(e *Encoder) error{
		func(e *Encoder) error { return e.Next(42, &next) },
		func(e *Encoder) error { return e.Next(9, &traced) },
		func(e *Encoder) error { return e.NextResp(42, nextResp) },
		func(e *Encoder) error { return e.Done(43, &done) },
		func(e *Encoder) error { return e.Done(9, &tracedDone) },
		func(e *Encoder) error { return e.DoneResp(43, doneResp) },
		func(e *Encoder) error { return e.DoneNext(44, &done, &next) },
		func(e *Encoder) error { return e.DoneNext(9, &tracedDone, &traced) },
		func(e *Encoder) error { return e.Done(46, &nanDone) },
		func(e *Encoder) error { return e.DoneNextResp(44, doneResp, nextResp) },
		func(e *Encoder) error { return e.Err(45, CodeSessionComplete, "workload complete") },
		func(e *Encoder) error { return e.Err(100, CodeTenantShed, "tenant noisy was shed") },
		func(e *Encoder) error { return e.Register(&reg) },
		func(e *Encoder) error { return e.RegisterResp(&regResp) },
		func(e *Encoder) error { return e.CloseSession(47) },
		func(e *Encoder) error { return e.CloseResp(47, &closeResp) },
	}
	var stream bytes.Buffer
	for _, seed := range seeds {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := seed(enc); err != nil {
			f.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		stream.Write(buf.Bytes())
	}
	f.Add(stream.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		off := 0
		for {
			h, p, err := dec.ReadFrame()
			if err != nil {
				return
			}
			frame := data[off : off+HeaderLen+len(p)]
			off += len(frame)

			var out bytes.Buffer
			enc := NewEncoder(&out)
			accepted := false
			switch h.Type {
			case TNext:
				if req, err := ParseNext(h, p); err == nil {
					accepted = true
					mustBeFinite(t, req.NowS)
					_ = enc.Next(h.Session, &req)
				}
			case TDone:
				if req, err := ParseDone(h, p); err == nil {
					accepted = true
					mustBeFinite(t, req.NowS, req.EnergyJ, req.Accuracy)
					_ = enc.Done(h.Session, &req)
				}
			case TDoneNext:
				if d, n, err := ParseDoneNext(h, p); err == nil {
					accepted = true
					mustBeFinite(t, d.NowS, d.EnergyJ, d.Accuracy, n.NowS)
					_ = enc.DoneNext(h.Session, &d, &n)
				}
			case TClose:
				if ParseClose(h) == nil {
					accepted = true
					_ = enc.CloseSession(h.Session)
				}
			case TRegister:
				_, _ = ParseRegister(h, p)
			case TErr:
				code, _, err := ParseErr(h, p)
				if err != nil {
					break
				}
				if want := lookupByte(p[0]); code != want {
					t.Fatalf("TErr byte %d read as %q, want %q", p[0], code, want)
				}
			}
			// The responses' parsers only have to survive.
			_, _ = ParseNextResp(h, p)
			_, _ = ParseDoneResp(h, p)
			_, _, _ = ParseDoneNextResp(h, p)
			_, _ = ParseRegisterResp(h, p)
			_, _ = ParseCloseResp(h, p)
			if accepted {
				_ = enc.Flush()
				if !bytes.Equal(out.Bytes(), frame) {
					t.Fatalf("frame type %d re-encodes as\n%x\nwant\n%x", h.Type, out.Bytes(), frame)
				}
			}
		}
	})
}

// mustBeFinite fails the test on a NaN or infinite value a parser let
// through.
func mustBeFinite(t *testing.T, xs ...float64) {
	t.Helper()
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("parser accepted the non-finite value %v", x)
		}
	}
}

// lookupByte is the code the error table gives byte b, bad_request when
// no row has it.
func lookupByte(b byte) string {
	for _, r := range codes {
		if r.b != 0 && r.b == b {
			return r.code
		}
	}
	return CodeBadRequest
}
