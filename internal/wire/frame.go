package wire

// The v2 wire layer: length-prefixed binary frames over a persistent
// connection, replacing one JSON/HTTP round trip per call with one
// write + one read on a long-lived stream. v2 carries a session's whole
// life: its registration and teardown (TRegister, TClose) and, between
// them, the per-iteration hot path — Next, Done and the pipelined
// DoneNext batch that settles the previous iteration and fetches the
// upcoming decision in a single frame. v1 (JSON over HTTP) remains the
// introspection and cluster control plane, the path fleet placement and
// failover take, and the fallback for any call a stream cannot carry.
//
// A v2 stream is opened by upgrading an HTTP/1.1 request on V2Path
// (`POST /v2/stream` with `Upgrade: jouleguard-frames/2`); the server
// hijacks the connection and both sides speak frames from then on. One
// stream may multiplex any number of sessions: every frame header
// carries the numeric session id the daemon returned at registration
// (RegisterResponse.SessionNum), so 10k sessions do not need 10k
// connections. Replies are returned in request order.
//
// Frame layout (all integers little-endian, floats IEEE-754 bits):
//
//	offset  size  field
//	0       2     magic 0x32 0x4A ("2J" on the wire; MagicV2)
//	2       1     type (TNext, TDone, ...)
//	3       1     flags (per-type bit set, see Flag*)
//	4       4     session (numeric session id, uint32)
//	8       4     length (payload bytes that follow, uint32)
//	12      —     payload
//
// The hot-path payloads are fixed-width binary. TErr carries one code
// byte followed by a UTF-8 message. The lifecycle frames carry the v1
// JSON bodies (RegisterRequest, RegisterResponse, CloseResponse): the
// request is read by the strict decoder v1's handlers use (DecodeJSON),
// the replies as v1's client reads them, so a session's shape has one
// schema on both wires. TClose names its session in the header and has
// no payload. Two optional frame sets are negotiated at upgrade
// (V2TraceHeader, V2LifecycleHeader), so a client never sends a frame an
// older daemon cannot read. The codec allocates nothing on the
// steady-state encode/decode path (pinned by BenchmarkFrame* at
// 0 allocs/op); encoders and decoders are pooled (GetEncoder /
// GetDecoder) so connection churn reuses their buffers.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// V2Path is the HTTP route a v2 stream upgrade is requested on.
const V2Path = "/v2/stream"

// V2Proto names the protocol in the Upgrade header.
const V2Proto = "jouleguard-frames/2"

// MagicV2 is the two-byte frame preamble ("2J" little-endian).
const MagicV2 = uint16(0x4A32)

// HeaderLen is the fixed frame-header size in bytes.
const HeaderLen = 12

// MaxFramePayload bounds a frame's payload; anything larger is a
// protocol error (the hot-path payloads are all under 64 bytes, and
// even an error message has no business being bigger than this).
const MaxFramePayload = 64 << 10

// Frame types.
const (
	// TNext asks for the upcoming iteration's decision (payload:
	// NextRequest, 8 bytes).
	TNext = byte(1)
	// TNextResp carries the decision (payload: NextResponse, 12 bytes).
	TNextResp = byte(2)
	// TDone reports a completed iteration (payload: DoneRequest,
	// 24 bytes; FlagEnergyErr in the header).
	TDone = byte(3)
	// TDoneResp acknowledges it with the ledger view (payload:
	// DoneResponse, 20 bytes; Degraded/Infeasible/Complete as flags).
	TDoneResp = byte(4)
	// TDoneNext settles the previous iteration and asks for the next
	// decision in one frame — the steady-state batch (payload:
	// DoneRequest + NextRequest.NowS, 32 bytes).
	TDoneNext = byte(5)
	// TDoneNextResp answers it (payload: DoneResponse + NextResponse,
	// 32 bytes). When Done succeeds but Next cannot (e.g. the workload
	// just completed), the server answers TDoneResp instead.
	TDoneNextResp = byte(6)
	// TErr reports a failed request (payload: one ErrCode byte + UTF-8
	// message). The stream stays usable.
	TErr = byte(7)
	// TRegister opens a session (payload: RegisterRequest as v1 JSON;
	// header session 0). Negotiated by V2LifecycleHeader.
	TRegister = byte(8)
	// TRegisterResp admits it (payload: RegisterResponse as v1 JSON;
	// header session = its SessionNum).
	TRegisterResp = byte(9)
	// TClose tears the session named in the header down (no payload).
	// Negotiated by V2LifecycleHeader.
	TClose = byte(10)
	// TCloseResp settles it (payload: CloseResponse as v1 JSON).
	TCloseResp = byte(11)
)

// Header flag bits (meaning depends on the frame type).
const (
	// FlagEnergyErr on TDone/TDoneNext marks a failed client meter read.
	FlagEnergyErr = byte(1 << 0)
	// FlagDegraded, FlagInfeasible, FlagComplete on TDoneResp /
	// TDoneNextResp mirror the DoneResponse booleans.
	FlagDegraded   = byte(1 << 1)
	FlagInfeasible = byte(1 << 2)
	FlagComplete   = byte(1 << 3)
	// FlagTraced on TNext/TDone/TDoneNext marks a TraceExtLen-byte
	// trailing extension on the payload: TraceID then SpanID, uint64 LE.
	// The capability is negotiated at upgrade (V2TraceHeader) so a new
	// client never sends extended frames to an old daemon; an old client
	// never sets the flag, and its exact-base-length frames parse as
	// before — the two protocol generations interoperate both ways.
	FlagTraced = byte(1 << 4)
)

// TraceExtLen is the FlagTraced trailing extension size (two uint64s).
const TraceExtLen = 16

// V2TraceHeader is the upgrade-negotiation header for the FlagTraced
// extension: the client sends it with the upgrade request, the daemon
// echoes it in the 101 reply iff it understands traced frames.
const V2TraceHeader = "X-Jouleguard-Trace"

// V2LifecycleHeader is the upgrade-negotiation header for the lifecycle
// frames (TRegister, TClose), echoed the same way: a client sends them
// only over a stream whose 101 reply carried it.
const V2LifecycleHeader = "X-Jouleguard-Lifecycle"

// Payload sizes per type (base sizes; FlagTraced appends TraceExtLen).
const (
	nextLen         = 8
	nextRespLen     = 12
	doneLen         = 24
	doneRespLen     = 20
	doneNextLen     = doneLen + 8
	doneNextRespLen = doneRespLen + nextRespLen
)

// Hdr is one decoded frame header.
type Hdr struct {
	Type    byte
	Flags   byte
	Session uint32
	Len     uint32
}

// ---------------------------------------------------------------------
// Encoder.

// Encoder writes frames into a buffered writer. Not safe for concurrent
// use; each connection owns one (GetEncoder/PutEncoder pool them).
type Encoder struct {
	w       *bufio.Writer
	scratch [HeaderLen + doneNextLen + TraceExtLen]byte
}

// NewEncoder builds an unpooled encoder (tests; prefer GetEncoder).
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 4096)}
}

// header fills the scratch prefix.
func (e *Encoder) header(t, flags byte, session, length uint32) {
	binary.LittleEndian.PutUint16(e.scratch[0:2], MagicV2)
	e.scratch[2] = t
	e.scratch[3] = flags
	binary.LittleEndian.PutUint32(e.scratch[4:8], session)
	binary.LittleEndian.PutUint32(e.scratch[8:12], length)
}

// putTraceExt appends the FlagTraced extension at payload offset off and
// returns the extended payload length.
func (e *Encoder) putTraceExt(off int, trace, span uint64) uint32 {
	binary.LittleEndian.PutUint64(e.scratch[HeaderLen+off:], trace)
	binary.LittleEndian.PutUint64(e.scratch[HeaderLen+off+8:], span)
	return uint32(off + TraceExtLen)
}

// Next writes a TNext frame; a nonzero req.TraceID rides the FlagTraced
// trailing extension (the caller must have negotiated it at upgrade).
// Requests pass by pointer: the trace fields push them past the register
// ABI, and the by-value spill alone was measurable on the encode path.
func (e *Encoder) Next(session uint32, req *NextRequest) error {
	length, flags := uint32(nextLen), byte(0)
	if req.TraceID != 0 {
		flags |= FlagTraced
		length = e.putTraceExt(nextLen, req.TraceID, req.SpanID)
	}
	e.header(TNext, flags, session, length)
	binary.LittleEndian.PutUint64(e.scratch[12:20], math.Float64bits(req.NowS))
	_, err := e.w.Write(e.scratch[:HeaderLen+int(length)])
	return err
}

// NextResp writes a TNextResp frame.
func (e *Encoder) NextResp(session uint32, resp NextResponse) error {
	e.header(TNextResp, 0, session, nextRespLen)
	putNextResp(e.scratch[12:], resp)
	_, err := e.w.Write(e.scratch[:HeaderLen+nextRespLen])
	return err
}

// Done writes a TDone frame; a nonzero req.TraceID rides the FlagTraced
// trailing extension.
func (e *Encoder) Done(session uint32, req *DoneRequest) error {
	var flags byte
	if req.EnergyErr {
		flags |= FlagEnergyErr
	}
	length := uint32(doneLen)
	if req.TraceID != 0 {
		flags |= FlagTraced
		length = e.putTraceExt(doneLen, req.TraceID, req.SpanID)
	}
	e.header(TDone, flags, session, length)
	putDone(e.scratch[12:], req)
	_, err := e.w.Write(e.scratch[:HeaderLen+int(length)])
	return err
}

// DoneResp writes a TDoneResp frame.
func (e *Encoder) DoneResp(session uint32, resp DoneResponse) error {
	e.header(TDoneResp, doneFlags(resp), session, doneRespLen)
	putDoneResp(e.scratch[12:], resp)
	_, err := e.w.Write(e.scratch[:HeaderLen+doneRespLen])
	return err
}

// DoneNext writes the batched TDoneNext frame: settle the previous
// iteration (done) and ask for the next decision (next) in one write.
// The trace context is shared by the pair: a nonzero done.TraceID rides
// one FlagTraced extension covering both halves.
func (e *Encoder) DoneNext(session uint32, done *DoneRequest, next *NextRequest) error {
	if done.TraceID != 0 {
		return e.doneNextTraced(session, done, next)
	}
	// Untraced steady state: constant sizes all the way down, so the
	// compiler keeps the slice bounds static.
	var flags byte
	if done.EnergyErr {
		flags |= FlagEnergyErr
	}
	e.header(TDoneNext, flags, session, doneNextLen)
	putDone(e.scratch[12:], done)
	binary.LittleEndian.PutUint64(e.scratch[12+doneLen:], math.Float64bits(next.NowS))
	_, err := e.w.Write(e.scratch[:HeaderLen+doneNextLen])
	return err
}

// doneNextTraced is the head-sampled slow path: same frame plus the
// shared FlagTraced extension.
func (e *Encoder) doneNextTraced(session uint32, done *DoneRequest, next *NextRequest) error {
	flags := FlagTraced
	if done.EnergyErr {
		flags |= FlagEnergyErr
	}
	length := e.putTraceExt(doneNextLen, done.TraceID, done.SpanID)
	e.header(TDoneNext, flags, session, length)
	putDone(e.scratch[12:], done)
	binary.LittleEndian.PutUint64(e.scratch[12+doneLen:], math.Float64bits(next.NowS))
	_, err := e.w.Write(e.scratch[:HeaderLen+int(length)])
	return err
}

// DoneNextResp writes the batched TDoneNextResp frame.
func (e *Encoder) DoneNextResp(session uint32, done DoneResponse, next NextResponse) error {
	e.header(TDoneNextResp, doneFlags(done), session, doneNextRespLen)
	putDoneResp(e.scratch[12:], done)
	putNextResp(e.scratch[12+doneRespLen:], next)
	_, err := e.w.Write(e.scratch[:HeaderLen+doneNextRespLen])
	return err
}

// Err writes a TErr frame carrying a stable code and a message.
func (e *Encoder) Err(session uint32, code, msg string) error {
	if len(msg) > MaxFramePayload-1 {
		msg = msg[:MaxFramePayload-1]
	}
	e.header(TErr, 0, session, uint32(1+len(msg)))
	if _, err := e.w.Write(e.scratch[:HeaderLen]); err != nil {
		return err
	}
	if err := e.w.WriteByte(ErrCodeByte(code)); err != nil {
		return err
	}
	_, err := e.w.WriteString(msg)
	return err
}

// Register writes a TRegister frame carrying req's v1 JSON body.
func (e *Encoder) Register(req *RegisterRequest) error {
	return e.jsonFrame(TRegister, 0, req)
}

// RegisterResp writes a TRegisterResp frame carrying resp's v1 JSON body
// under the admitted session's numeric id.
func (e *Encoder) RegisterResp(resp *RegisterResponse) error {
	return e.jsonFrame(TRegisterResp, resp.SessionNum, resp)
}

// CloseSession writes a TClose frame for session.
func (e *Encoder) CloseSession(session uint32) error {
	e.header(TClose, 0, session, 0)
	_, err := e.w.Write(e.scratch[:HeaderLen])
	return err
}

// CloseResp writes a TCloseResp frame carrying resp's v1 JSON body.
func (e *Encoder) CloseResp(session uint32, resp *CloseResponse) error {
	return e.jsonFrame(TCloseResp, session, resp)
}

// jsonFrame writes a frame whose payload is v's JSON encoding, without the
// trailing newline v1's replies carry. Nothing is written when v does not
// encode or its encoding exceeds MaxFramePayload.
func (e *Encoder) jsonFrame(t byte, session uint32, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(b) > MaxFramePayload {
		return fmt.Errorf("wire: frame type %d payload %d bytes exceeds %d-byte cap", t, len(b), MaxFramePayload)
	}
	e.header(t, 0, session, uint32(len(b)))
	if _, err := e.w.Write(e.scratch[:HeaderLen]); err != nil {
		return err
	}
	_, err = e.w.Write(b)
	return err
}

// Flush pushes buffered frames onto the connection.
func (e *Encoder) Flush() error { return e.w.Flush() }

func doneFlags(resp DoneResponse) byte {
	var flags byte
	if resp.Degraded {
		flags |= FlagDegraded
	}
	if resp.Infeasible {
		flags |= FlagInfeasible
	}
	if resp.Complete {
		flags |= FlagComplete
	}
	return flags
}

func putDone(b []byte, req *DoneRequest) {
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(req.NowS))
	binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(req.EnergyJ))
	binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(req.Accuracy))
}

func putDoneResp(b []byte, resp DoneResponse) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(resp.IterationsDone))
	binary.LittleEndian.PutUint64(b[4:12], math.Float64bits(resp.SpentJ))
	binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(resp.GrantRemainingJ))
}

func putNextResp(b []byte, resp NextResponse) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(resp.Iter))
	binary.LittleEndian.PutUint32(b[4:8], uint32(resp.AppConfig))
	binary.LittleEndian.PutUint32(b[8:12], uint32(resp.SysConfig))
}

// ---------------------------------------------------------------------
// Decoder.

// Decoder reads frames from a buffered reader into a reusable payload
// buffer. Not safe for concurrent use; each connection owns one
// (GetDecoder/PutDecoder pool them).
type Decoder struct {
	r       *bufio.Reader
	hdr     [HeaderLen]byte
	payload []byte
}

// NewDecoder builds an unpooled decoder. If r is already a
// *bufio.Reader with a large enough buffer (the HTTP-hijack path hands
// one over, possibly holding pipelined frames the client sent behind
// the upgrade request), it is used directly.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 4096)}
}

// ReadFrame reads one frame. The returned payload slice is valid only
// until the next ReadFrame call (it aliases the decoder's buffer).
func (d *Decoder) ReadFrame() (Hdr, []byte, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return Hdr{}, nil, err
	}
	if binary.LittleEndian.Uint16(d.hdr[0:2]) != MagicV2 {
		return Hdr{}, nil, fmt.Errorf("wire: bad frame magic %#x", binary.LittleEndian.Uint16(d.hdr[0:2]))
	}
	h := Hdr{
		Type:    d.hdr[2],
		Flags:   d.hdr[3],
		Session: binary.LittleEndian.Uint32(d.hdr[4:8]),
		Len:     binary.LittleEndian.Uint32(d.hdr[8:12]),
	}
	if h.Len > MaxFramePayload {
		return Hdr{}, nil, fmt.Errorf("wire: frame payload %d exceeds %d-byte cap", h.Len, MaxFramePayload)
	}
	if cap(d.payload) < int(h.Len) {
		d.payload = make([]byte, h.Len)
	}
	p := d.payload[:h.Len]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return Hdr{}, nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return h, p, nil
}

// Buffered reports bytes already read from the connection but not yet
// consumed — a pipelining server flushes replies only when it drops to
// zero, so a burst of frames gets one write back.
func (d *Decoder) Buffered() int { return d.r.Buffered() }

// checkReq validates a request frame: its flags against the bits its
// type defines (flags, plus FlagTraced), its payload length against the
// type's base size plus the FlagTraced extension when the flag is set,
// and a set FlagTraced against a zero trace id. The encoder produces no
// other frame, so every request frame a parser accepts re-encodes byte
// for byte.
func checkReq(h Hdr, p []byte, base int, flags byte) error {
	if h.Flags&^(flags|FlagTraced) != 0 {
		return fmt.Errorf("wire: frame type %d sets undefined flags %#x", h.Type, h.Flags)
	}
	want := base
	if h.Flags&FlagTraced != 0 {
		want += TraceExtLen
	}
	if int(h.Len) != want {
		return fmt.Errorf("wire: frame type %d payload %d bytes, want %d", h.Type, h.Len, want)
	}
	if h.Flags&FlagTraced != 0 && binary.LittleEndian.Uint64(p[base:]) == 0 {
		return fmt.Errorf("wire: frame type %d is traced with no trace id", h.Type)
	}
	return nil
}

// getTraceExt reads the FlagTraced extension trailing the base payload.
func getTraceExt(h Hdr, p []byte, base int) (trace, span uint64) {
	if h.Flags&FlagTraced == 0 {
		return 0, 0
	}
	return binary.LittleEndian.Uint64(p[base : base+8]),
		binary.LittleEndian.Uint64(p[base+8 : base+16])
}

// ParseNext decodes a TNext payload.
func ParseNext(h Hdr, p []byte) (NextRequest, error) {
	if err := checkReq(h, p, nextLen, 0); err != nil {
		return NextRequest{}, err
	}
	req := NextRequest{NowS: math.Float64frombits(binary.LittleEndian.Uint64(p[0:8]))}
	if !finite(req.NowS) {
		return NextRequest{}, fmt.Errorf("wire: TNext now_s %v is not finite", req.NowS)
	}
	req.TraceID, req.SpanID = getTraceExt(h, p, nextLen)
	return req, nil
}

// ParseNextResp decodes a TNextResp payload.
func ParseNextResp(h Hdr, p []byte) (NextResponse, error) {
	if h.Len != nextRespLen {
		return NextResponse{}, fmt.Errorf("wire: TNextResp payload %d bytes, want %d", h.Len, nextRespLen)
	}
	return getNextResp(p), nil
}

// ParseDone decodes a TDone payload (EnergyErr rides in the header).
func ParseDone(h Hdr, p []byte) (DoneRequest, error) {
	if err := checkReq(h, p, doneLen, FlagEnergyErr); err != nil {
		return DoneRequest{}, err
	}
	req, err := getDone(h.Flags, p)
	if err != nil {
		return DoneRequest{}, err
	}
	req.TraceID, req.SpanID = getTraceExt(h, p, doneLen)
	return req, nil
}

// ParseDoneResp decodes a TDoneResp payload.
func ParseDoneResp(h Hdr, p []byte) (DoneResponse, error) {
	if h.Len != doneRespLen {
		return DoneResponse{}, fmt.Errorf("wire: TDoneResp payload %d bytes, want %d", h.Len, doneRespLen)
	}
	return getDoneResp(h.Flags, p), nil
}

// ParseDoneNext decodes the batched TDoneNext payload; the trace
// context (one extension for the pair) lands on both halves.
func ParseDoneNext(h Hdr, p []byte) (DoneRequest, NextRequest, error) {
	if err := checkReq(h, p, doneNextLen, FlagEnergyErr); err != nil {
		return DoneRequest{}, NextRequest{}, err
	}
	done, err := getDone(h.Flags, p)
	if err != nil {
		return DoneRequest{}, NextRequest{}, err
	}
	next := NextRequest{NowS: math.Float64frombits(binary.LittleEndian.Uint64(p[doneLen : doneLen+8]))}
	if !finite(next.NowS) {
		return DoneRequest{}, NextRequest{}, fmt.Errorf("wire: TDoneNext next now_s %v is not finite", next.NowS)
	}
	done.TraceID, done.SpanID = getTraceExt(h, p, doneNextLen)
	next.TraceID, next.SpanID = done.TraceID, done.SpanID
	return done, next, nil
}

// ParseDoneNextResp decodes the batched TDoneNextResp payload.
func ParseDoneNextResp(h Hdr, p []byte) (DoneResponse, NextResponse, error) {
	if h.Len != doneNextRespLen {
		return DoneResponse{}, NextResponse{}, fmt.Errorf("wire: TDoneNextResp payload %d bytes, want %d", h.Len, doneNextRespLen)
	}
	return getDoneResp(h.Flags, p), getNextResp(p[doneRespLen:]), nil
}

// ParseErr decodes a TErr payload into (code, message). The message
// string is copied (errors are off the hot path).
func ParseErr(h Hdr, p []byte) (code, msg string, err error) {
	if h.Len < 1 {
		return "", "", fmt.Errorf("wire: empty TErr payload")
	}
	return ErrCodeString(p[0]), string(p[1:]), nil
}

// ParseRegister decodes a TRegister payload with the strict decoder v1's
// handlers use (DecodeJSON).
func ParseRegister(h Hdr, p []byte) (RegisterRequest, error) {
	var req RegisterRequest
	if h.Flags != 0 || h.Session != 0 {
		return req, fmt.Errorf("wire: TRegister with flags %#x, session %d; want neither", h.Flags, h.Session)
	}
	if err := DecodeJSON(bytes.NewReader(p), &req); err != nil {
		return RegisterRequest{}, fmt.Errorf("invalid JSON body: %w", err)
	}
	return req, nil
}

// ParseRegisterResp decodes a TRegisterResp payload.
func ParseRegisterResp(h Hdr, p []byte) (RegisterResponse, error) {
	var resp RegisterResponse
	return resp, parseJSONResp(h, p, &resp)
}

// ParseClose checks a TClose frame: no flags, no payload.
func ParseClose(h Hdr) error {
	if h.Flags != 0 || h.Len != 0 {
		return fmt.Errorf("wire: TClose with flags %#x, payload %d bytes; want neither", h.Flags, h.Len)
	}
	return nil
}

// ParseCloseResp decodes a TCloseResp payload.
func ParseCloseResp(h Hdr, p []byte) (CloseResponse, error) {
	var resp CloseResponse
	return resp, parseJSONResp(h, p, &resp)
}

// parseJSONResp decodes a lifecycle reply's JSON payload as v1's client
// reads the same body: fields it does not know are ignored, so a newer
// daemon may add some.
func parseJSONResp(h Hdr, p []byte, v any) error {
	if h.Flags != 0 {
		return fmt.Errorf("wire: frame type %d sets undefined flags %#x", h.Type, h.Flags)
	}
	return json.Unmarshal(p, v)
}

// getDone decodes a done payload and refuses NaN and infinite values,
// which v1's JSON cannot carry either.
func getDone(flags byte, p []byte) (DoneRequest, error) {
	req := DoneRequest{
		NowS:      math.Float64frombits(binary.LittleEndian.Uint64(p[0:8])),
		EnergyJ:   math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])),
		Accuracy:  math.Float64frombits(binary.LittleEndian.Uint64(p[16:24])),
		EnergyErr: flags&FlagEnergyErr != 0,
	}
	if !finite(req.NowS) || !finite(req.EnergyJ) || !finite(req.Accuracy) {
		return DoneRequest{}, fmt.Errorf("wire: done now_s %v, energy_j %v, accuracy %v: not all finite", req.NowS, req.EnergyJ, req.Accuracy)
	}
	return req, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func getDoneResp(flags byte, p []byte) DoneResponse {
	return DoneResponse{
		IterationsDone:  int(binary.LittleEndian.Uint32(p[0:4])),
		SpentJ:          math.Float64frombits(binary.LittleEndian.Uint64(p[4:12])),
		GrantRemainingJ: math.Float64frombits(binary.LittleEndian.Uint64(p[12:20])),
		Degraded:        flags&FlagDegraded != 0,
		Infeasible:      flags&FlagInfeasible != 0,
		Complete:        flags&FlagComplete != 0,
	}
}

func getNextResp(p []byte) NextResponse {
	return NextResponse{
		Iter:      int(binary.LittleEndian.Uint32(p[0:4])),
		AppConfig: int(binary.LittleEndian.Uint32(p[4:8])),
		SysConfig: int(binary.LittleEndian.Uint32(p[8:12])),
	}
}

// ---------------------------------------------------------------------
// Pools. Connections are long-lived, but a node cycling 10k sessions
// through reconnects should not re-grow codec buffers each time.

var encPool = sync.Pool{New: func() any { return NewEncoder(io.Discard) }}
var decPool = sync.Pool{New: func() any { return &Decoder{} }}

// GetEncoder leases a pooled encoder bound to w.
func GetEncoder(w io.Writer) *Encoder {
	e := encPool.Get().(*Encoder)
	e.w.Reset(w)
	return e
}

// PutEncoder returns an encoder to the pool; the caller must not use it
// afterwards. Buffered frames are discarded — Flush first.
func PutEncoder(e *Encoder) {
	e.w.Reset(io.Discard)
	encPool.Put(e)
}

// GetDecoder leases a pooled decoder bound to r. A *bufio.Reader with a
// large enough buffer is adopted directly (it may hold pipelined frames
// already read off the socket), replacing the pooled one.
func GetDecoder(r io.Reader) *Decoder {
	d := decPool.Get().(*Decoder)
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= 4096 {
		d.r = br
		return d
	}
	if d.r == nil {
		d.r = bufio.NewReaderSize(r, 4096)
	} else {
		d.r.Reset(r)
	}
	return d
}

// PutDecoder returns a decoder to the pool. The payload buffer is kept
// (that is the point of pooling); the reader is detached so the pool
// never pins a connection.
func PutDecoder(d *Decoder) {
	if d.r != nil {
		d.r.Reset(eofReader{})
	}
	decPool.Put(d)
}

// eofReader detaches a pooled decoder from its former connection.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
