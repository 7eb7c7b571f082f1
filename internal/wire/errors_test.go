package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
)

// TestErrorContract pins every stable code's row as literals: the HTTP
// status its v1 reply carries, the byte its v2 TErr frame carries (0 =
// none; sent as bad_request's 1) and the class callers recover by. The
// statuses and bytes are what the daemon and coordinator served before
// the table existed; the classes are what the client and the fleet
// member did with each code — except not_primary, which the client used
// to retry on the standby (it is a 503) and now rotates past at once.
func TestErrorContract(t *testing.T) {
	want := []struct {
		code   string
		status int
		b      byte
		class  Class
	}{
		{"bad_request", 400, 1, Final},
		{"unknown_session", 404, 2, Failover},
		{"bad_sequence", 409, 3, Final},
		{"session_closed", 410, 4, Final},
		{"session_complete", 409, 5, Final},
		{"draining", 503, 6, Retry},
		{"budget_exhausted", 429, 7, Final},
		{"lease_expired", 503, 8, Retry},
		{"not_owner", 307, 9, Failover},
		{"tenant_throttled", 429, 10, Retry},
		{"tenant_suspended", 503, 11, Failover},
		{"tenant_shed", 503, 12, Failover},
		{"no_nodes", 503, 0, Retry},
		{"unknown_node", 409, 0, Final},
		{"stale_epoch", 409, 0, Rotate},
		{"not_primary", 503, 0, Rotate},
	}
	if len(codes) != len(want) {
		t.Fatalf("table has %d rows, contract pins %d", len(codes), len(want))
	}
	for _, w := range want {
		if r := lookup(w.code); r.code != w.code {
			t.Errorf("%s: no row", w.code)
			continue
		}
		if got := Status(w.code); got != w.status {
			t.Errorf("%s: status %d, want %d", w.code, got, w.status)
		}
		if got := ClassOf(w.code); got != w.class {
			t.Errorf("%s: class %d, want %d", w.code, got, w.class)
		}
		sent := max(w.b, 1)
		if got := ErrCodeByte(w.code); got != sent {
			t.Errorf("%s: frame byte %d, want %d", w.code, got, sent)
		}
		back := w.code
		if w.b == 0 {
			back = CodeBadRequest
		}
		if got := ErrCodeString(ErrCodeByte(w.code)); got != back {
			t.Errorf("%s: byte %d reads back as %q, want %q", w.code, sent, got, back)
		}
		// The v1 reply: the row's status and the same body bytes the
		// daemon always sent, through any wrapping of the error.
		rec := httptest.NewRecorder()
		WriteError(rec, fmt.Errorf("wrapped: %w", &Error{w.code, "why"}))
		body := `{"code":"` + w.code + `","error":"wrapped: why"}` + "\n"
		if rec.Code != w.status || rec.Body.String() != body {
			t.Errorf("%s: WriteError = %d %q, want %d %q", w.code, rec.Code, rec.Body.String(), w.status, body)
		}
	}
	// Anything outside the table degrades to bad_request, never a panic
	// or a dropped frame.
	if got := ErrCodeString(ErrCodeByte("no_such_code")); got != CodeBadRequest {
		t.Errorf("unknown code mapped to %q", got)
	}
	for _, b := range []byte{0, 13, 0xff} {
		if got := ErrCodeString(b); got != CodeBadRequest {
			t.Errorf("byte %d mapped to %q", b, got)
		}
	}
	if ClassOf("no_such_code") != Final || Status("no_such_code") != 400 {
		t.Errorf("unknown code must read as bad_request's row")
	}
	rec := httptest.NewRecorder()
	WriteError(rec, errors.New("plain"))
	if rec.Code != 400 || rec.Body.String() != `{"code":"bad_request","error":"plain"}`+"\n" {
		t.Errorf("plain error written as %d %q", rec.Code, rec.Body.String())
	}
}

func TestDecodeError(t *testing.T) {
	cases := []struct {
		status int
		body   string
		want   Error
	}{
		{503, `{"code":"not_primary","error":"standby"}`, Error{CodeNotPrimary, "standby"}},
		{307, `{"code":"not_owner","error":"moved","addr":"http://n2"}`, Error{CodeNotOwner, "moved"}},
		// No code: not a JouleGuard reply.
		{502, "  Bad Gateway\n", Error{"", "Bad Gateway"}},
		{404, "404 page not found\n", Error{"", "404 page not found"}},
		{500, `{"error":"no code"}`, Error{"", `{"error":"no code"}`}},
		{503, "", Error{"", "HTTP 503"}},
	}
	for _, c := range cases {
		if got := DecodeError(c.status, []byte(c.body)); *got != c.want {
			t.Errorf("DecodeError(%d, %q) = %+v, want %+v", c.status, c.body, *got, c.want)
		}
	}
}

// TestWriteJSONEncodesFirst: a reply that does not encode goes out as a
// 500 whose body is a codeless ErrorResponse — parseable JSON that
// callers read as a failed call — never as the intended status with an
// empty body.
func TestWriteJSONEncodesFirst(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, SessionInfo{SessionID: "s-000001", MeanAcc: math.NaN()})
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 500 || err != nil || resp.Code != "" || resp.Error == "" {
		t.Fatalf("unencodable reply written as %d %q (%v)", rec.Code, rec.Body.String(), err)
	}
	if werr := DecodeError(rec.Code, rec.Body.Bytes()); werr.Code != "" {
		t.Errorf("the 500 carries code %q; want none", werr.Code)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, 201, CloseResponse{SessionID: "s-000001", SpentJ: 1.5})
	if rec.Code != 201 || rec.Body.String() != `{"session_id":"s-000001","spent_j":1.5,"reclaimed_j":0}`+"\n" {
		t.Errorf("reply written as %d %q", rec.Code, rec.Body.String())
	}
}
