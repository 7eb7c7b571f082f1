package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)

	next := NextRequest{NowS: 12.375}
	nextResp := NextResponse{Iter: 7, AppConfig: 3, SysConfig: 11}
	done := DoneRequest{NowS: 13.5, EnergyJ: 101.25, Accuracy: 0.875, EnergyErr: true}
	doneResp := DoneResponse{IterationsDone: 7, SpentJ: 55.5, GrantRemainingJ: 44.5,
		Degraded: true, Infeasible: false, Complete: true}

	if err := enc.Next(42, &next); err != nil {
		t.Fatal(err)
	}
	if err := enc.NextResp(42, nextResp); err != nil {
		t.Fatal(err)
	}
	if err := enc.Done(43, &done); err != nil {
		t.Fatal(err)
	}
	if err := enc.DoneResp(43, doneResp); err != nil {
		t.Fatal(err)
	}
	if err := enc.DoneNext(44, &done, &next); err != nil {
		t.Fatal(err)
	}
	if err := enc.DoneNextResp(44, doneResp, nextResp); err != nil {
		t.Fatal(err)
	}
	if err := enc.Err(45, CodeSessionComplete, "workload complete"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(&buf)

	h, p, err := dec.ReadFrame()
	if err != nil || h.Type != TNext || h.Session != 42 {
		t.Fatalf("frame 1: hdr %+v err %v", h, err)
	}
	if got, err := ParseNext(h, p); err != nil || got != next {
		t.Fatalf("ParseNext: %+v %v", got, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TNextResp {
		t.Fatalf("frame 2: hdr %+v err %v", h, err)
	}
	if got, err := ParseNextResp(h, p); err != nil || got != nextResp {
		t.Fatalf("ParseNextResp: %+v %v", got, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TDone || h.Session != 43 {
		t.Fatalf("frame 3: hdr %+v err %v", h, err)
	}
	if got, err := ParseDone(h, p); err != nil || got != done {
		t.Fatalf("ParseDone: %+v %v", got, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TDoneResp {
		t.Fatalf("frame 4: hdr %+v err %v", h, err)
	}
	if got, err := ParseDoneResp(h, p); err != nil || got != doneResp {
		t.Fatalf("ParseDoneResp: %+v %v", got, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TDoneNext || h.Session != 44 {
		t.Fatalf("frame 5: hdr %+v err %v", h, err)
	}
	if gd, gn, err := ParseDoneNext(h, p); err != nil || gd != done || gn != next {
		t.Fatalf("ParseDoneNext: %+v %+v %v", gd, gn, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TDoneNextResp {
		t.Fatalf("frame 6: hdr %+v err %v", h, err)
	}
	if gd, gn, err := ParseDoneNextResp(h, p); err != nil || gd != doneResp || gn != nextResp {
		t.Fatalf("ParseDoneNextResp: %+v %+v %v", gd, gn, err)
	}

	h, p, err = dec.ReadFrame()
	if err != nil || h.Type != TErr || h.Session != 45 {
		t.Fatalf("frame 7: hdr %+v err %v", h, err)
	}
	code, msg, err := ParseErr(h, p)
	if err != nil || code != CodeSessionComplete || msg != "workload complete" {
		t.Fatalf("ParseErr: %q %q %v", code, msg, err)
	}

	if _, _, err := dec.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	raw := make([]byte, HeaderLen)
	raw[0], raw[1] = 0xde, 0xad
	dec := NewDecoder(bytes.NewReader(raw))
	if _, _, err := dec.ReadFrame(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	raw := make([]byte, HeaderLen)
	binary.LittleEndian.PutUint16(raw[0:2], MagicV2)
	raw[2] = TErr
	binary.LittleEndian.PutUint32(raw[8:12], MaxFramePayload+1)
	dec := NewDecoder(bytes.NewReader(raw))
	if _, _, err := dec.ReadFrame(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("want payload-cap error, got %v", err)
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Next(1, &NextRequest{NowS: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		dec := NewDecoder(bytes.NewReader(raw[:len(raw)-cut]))
		if _, _, err := dec.ReadFrame(); err == nil {
			t.Fatalf("cut %d bytes: decode unexpectedly succeeded", cut)
		}
	}
}

func TestFrameWrongLengthForType(t *testing.T) {
	// A TNext header claiming a Done-sized payload must fail the parse,
	// not read garbage.
	h := Hdr{Type: TNext, Len: doneLen}
	if _, err := ParseNext(h, make([]byte, doneLen)); err == nil {
		t.Fatal("ParseNext accepted a mis-sized payload")
	}
	if _, err := ParseDoneResp(Hdr{Type: TDoneResp, Len: 3}, make([]byte, 3)); err == nil {
		t.Fatal("ParseDoneResp accepted a mis-sized payload")
	}
}

// TestFrameRejectsNonFinite: NaN and infinite clocks, energies and
// accuracies are refused at decode, as v1's JSON cannot carry them.
func TestFrameRejectsNonFinite(t *testing.T) {
	good := DoneRequest{NowS: 2, EnergyJ: 3, Accuracy: 0.5}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := []struct {
			name string
			done DoneRequest
			next NextRequest
		}{
			{"now_s", DoneRequest{NowS: bad, EnergyJ: 3, Accuracy: 0.5}, NextRequest{NowS: 1}},
			{"energy_j", DoneRequest{NowS: 2, EnergyJ: bad, Accuracy: 0.5}, NextRequest{NowS: 1}},
			{"energy_j with energy_err", DoneRequest{NowS: 2, EnergyJ: bad, Accuracy: 0.5, EnergyErr: true}, NextRequest{NowS: 1}},
			{"accuracy", DoneRequest{NowS: 2, EnergyJ: 3, Accuracy: bad}, NextRequest{NowS: 1}},
			{"next now_s", good, NextRequest{NowS: bad}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s=%v", tc.name, bad), func(t *testing.T) {
				var buf bytes.Buffer
				enc := NewEncoder(&buf)
				if err := enc.Next(1, &tc.next); err != nil {
					t.Fatal(err)
				}
				if err := enc.Done(1, &tc.done); err != nil {
					t.Fatal(err)
				}
				if err := enc.DoneNext(1, &tc.done, &tc.next); err != nil {
					t.Fatal(err)
				}
				if err := enc.Flush(); err != nil {
					t.Fatal(err)
				}
				dec := NewDecoder(&buf)
				h, p, err := dec.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				_, nextErr := ParseNext(h, p)
				if h, p, err = dec.ReadFrame(); err != nil {
					t.Fatal(err)
				}
				_, doneErr := ParseDone(h, p)
				if h, p, err = dec.ReadFrame(); err != nil {
					t.Fatal(err)
				}
				_, _, pairErr := ParseDoneNext(h, p)
				badNext := tc.name == "next now_s"
				if (nextErr != nil) != badNext || (doneErr != nil) == badNext || pairErr == nil {
					t.Errorf("TNext err %v, TDone err %v, TDoneNext err %v", nextErr, doneErr, pairErr)
				}
			})
		}
	}
}

// TestEnforcementCodesFrameRoundTrip pins the QoS enforcement codes'
// v2 rendering end to end: each code crosses a real encode/decode as a
// TErr frame and comes back as itself, and the byte assignments are
// frozen (changing one would silently remap errors for every deployed
// v2 client).
func TestEnforcementCodesFrameRoundTrip(t *testing.T) {
	cases := []struct {
		code string
		b    byte
		msg  string
	}{
		{CodeTenantThrottled, 10, "tenant noisy is throttled; decisions paced to the standard SLO"},
		{CodeTenantSuspended, 11, "tenant noisy is suspended; new registrations refused until it de-escalates"},
		{CodeTenantShed, 12, "tenant noisy was shed; its sessions are killed until it de-escalates"},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i, c := range cases {
		if got := ErrCodeByte(c.code); got != c.b {
			t.Errorf("ErrCodeByte(%q) = %d, want %d", c.code, got, c.b)
		}
		if err := enc.Err(uint32(100+i), c.code, c.msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, c := range cases {
		h, p, err := dec.ReadFrame()
		if err != nil || h.Type != TErr || h.Session != uint32(100+i) {
			t.Fatalf("frame %d: hdr %+v err %v", i, h, err)
		}
		if p[0] != c.b {
			t.Errorf("frame %d: wire byte %d, want %d", i, p[0], c.b)
		}
		code, msg, err := ParseErr(h, p)
		if err != nil || code != c.code || msg != c.msg {
			t.Errorf("frame %d: ParseErr = %q %q %v, want %q %q", i, code, msg, err, c.code, c.msg)
		}
	}
	if _, _, err := dec.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestCodecPoolsReuse(t *testing.T) {
	var buf bytes.Buffer
	enc := GetEncoder(&buf)
	if err := enc.DoneNext(9, &DoneRequest{NowS: 2, EnergyJ: 3, Accuracy: 1}, &NextRequest{NowS: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	PutEncoder(enc)

	dec := GetDecoder(&buf)
	h, p, err := dec.ReadFrame()
	if err != nil || h.Type != TDoneNext || h.Session != 9 {
		t.Fatalf("pooled decode: hdr %+v err %v", h, err)
	}
	if _, _, err := ParseDoneNext(h, p); err != nil {
		t.Fatal(err)
	}
	PutDecoder(dec)

	// A returned decoder must not read from its former stream.
	d2 := decPool.Get().(*Decoder)
	if d2.r != nil {
		if _, _, err := d2.ReadFrame(); err != io.EOF {
			t.Fatalf("pooled decoder still attached to old stream: %v", err)
		}
	}
	decPool.Put(d2)
}

// countingWriter swallows writes without buffering growth, so encoder
// benchmarks measure the codec, not a bytes.Buffer.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// BenchmarkFrameEncodeDoneNext pins the steady-state encode path at
// 0 allocs/op: one batched frame per governed iteration.
func BenchmarkFrameEncodeDoneNext(b *testing.B) {
	enc := NewEncoder(&countingWriter{})
	done := DoneRequest{NowS: 13.5, EnergyJ: 101.25, Accuracy: 0.875}
	next := NextRequest{NowS: 13.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.DoneNext(42, &done, &next); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
}

// loopReader replays one frame forever, alloc-free.
type loopReader struct {
	raw []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.raw) {
		r.off = 0
	}
	n := copy(p, r.raw[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkFrameDecodeDoneNext pins the steady-state decode path at
// 0 allocs/op.
func BenchmarkFrameDecodeDoneNext(b *testing.B) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.DoneNext(42, &DoneRequest{NowS: 13.5, EnergyJ: 101.25, Accuracy: 0.875}, &NextRequest{NowS: 13.5}); err != nil {
		b.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder(&loopReader{raw: buf.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, p, err := dec.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ParseDoneNext(h, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRoundTrip is the full encode+decode cost of one batched
// iteration frame pair, also at 0 allocs/op.
func BenchmarkFrameRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	dec := NewDecoder(&buf)
	done := DoneRequest{NowS: 13.5, EnergyJ: 101.25, Accuracy: 0.875}
	next := NextRequest{NowS: 13.5}
	doneResp := DoneResponse{IterationsDone: 7, SpentJ: 55.5, GrantRemainingJ: 44.5}
	nextResp := NextResponse{Iter: 8, AppConfig: 3, SysConfig: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.DoneNext(42, &done, &next); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		h, p, err := dec.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ParseDoneNext(h, p); err != nil {
			b.Fatal(err)
		}
		if err := enc.DoneNextResp(42, doneResp, nextResp); err != nil {
			b.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
		h, p, err = dec.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ParseDoneNextResp(h, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLifecycleFrameRoundTrip pins the lifecycle frames: TRegister,
// TRegisterResp and TCloseResp carry byte for byte the JSON bodies v1
// sends (less v1's trailing newline), TRegisterResp names the admitted
// session in its header, TClose is a bare header, and the register
// request is read by v1's strict decoder — an unknown field is refused
// on both wires alike.
func TestLifecycleFrameRoundTrip(t *testing.T) {
	reg := RegisterRequest{Tenant: "enc", Tier: "guaranteed", Key: "k1", App: "x264", Platform: "Server",
		Iterations: 32, Factor: 2, MinAccuracy: 0.9, Seed: 7, IdleTimeoutS: 1.5}
	regResp := RegisterResponse{SessionID: "s-000009", SessionNum: 9, GrantJ: 123.5, Iterations: 32,
		AppConfigs: 4, SysConfigs: 1024}
	closeResp := CloseResponse{SessionID: "s-000009", SpentJ: 100.25, ReclaimedJ: 23.25}

	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, write := range []func() error{
		func() error { return enc.Register(&reg) },
		func() error { return enc.RegisterResp(&regResp) },
		func() error { return enc.CloseSession(9) },
		func() error { return enc.CloseResp(9, &closeResp) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	frame := func(typ byte, session uint32, body any) []byte {
		t.Helper()
		h, p, err := dec.ReadFrame()
		if err != nil || h.Type != typ || h.Session != session || h.Flags != 0 {
			t.Fatalf("want type %d session %d: hdr %+v err %v", typ, session, h, err)
		}
		if body != nil {
			want, _ := json.Marshal(body)
			if !bytes.Equal(p, want) {
				t.Fatalf("type %d payload %s, want v1's body %s", typ, p, want)
			}
		}
		if typ == TRegister {
			if got, err := ParseRegister(h, p); err != nil || got != reg {
				t.Fatalf("ParseRegister: %+v %v", got, err)
			}
		}
		if typ == TClose {
			if err := ParseClose(h); err != nil || len(p) != 0 {
				t.Fatalf("ParseClose: %v, payload %d bytes", err, len(p))
			}
		}
		return append([]byte(nil), p...)
	}
	frame(TRegister, 0, reg)
	if got, err := ParseRegisterResp(Hdr{Type: TRegisterResp}, frame(TRegisterResp, 9, regResp)); err != nil || got != regResp {
		t.Fatalf("ParseRegisterResp: %+v %v", got, err)
	}
	frame(TClose, 9, nil)
	if got, err := ParseCloseResp(Hdr{Type: TCloseResp}, frame(TCloseResp, 9, closeResp)); err != nil || got != closeResp {
		t.Fatalf("ParseCloseResp: %+v %v", got, err)
	}

	for name, body := range map[string]string{
		"unknown field": `{"tenant":"a","app":"x264","platform":"Server","iterations":1,"budget":5}`,
		"not JSON":      `{"tenant":`,
		"wrong type":    `{"iterations":"many"}`,
	} {
		if _, err := ParseRegister(Hdr{Type: TRegister, Len: uint32(len(body))}, []byte(body)); err == nil {
			t.Errorf("ParseRegister accepted the %s body %s", name, body)
		}
	}
	if _, err := ParseRegister(Hdr{Type: TRegister, Flags: FlagTraced, Len: 2}, []byte("{}")); err == nil {
		t.Error("ParseRegister accepted a flag")
	}
	if err := ParseClose(Hdr{Type: TClose, Session: 9, Len: 1}); err == nil {
		t.Error("ParseClose accepted a payload")
	}
	if err := ParseClose(Hdr{Type: TClose, Session: 9, Flags: FlagEnergyErr}); err == nil {
		t.Error("ParseClose accepted a flag")
	}
}
