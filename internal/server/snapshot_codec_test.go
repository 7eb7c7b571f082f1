package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jouleguard/internal/wire"
)

// jsonIterLine is the iter line encoding/json writes for rec, the
// reference the iter-line codec is held to.
func jsonIterLine(sid string, rec iterRec) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Kind string `json:"kind"`
		snapIter
	}{"iter", snapIter{SID: sid, iterRec: rec}})
	return buf.Bytes(), err
}

// sameSnapLine is snapLine equality that tells -0 from 0 and a nil State
// from an empty one, as Restore does.
func sameSnapLine(a, b snapLine) bool {
	bits := func(l snapLine) [5]uint64 {
		return [5]uint64{math.Float64bits(l.NextNow), math.Float64bits(l.DoneNow),
			math.Float64bits(l.EnergyJ), math.Float64bits(l.Accuracy), math.Float64bits(l.ClientJ)}
	}
	return reflect.DeepEqual(a, b) && bits(a) == bits(b)
}

// edgeFloats are the values where encoding/json's float format changes
// shape: signed zeros, the 'f'/'e' switch at 1e-6 and 1e21 from both
// sides, one-digit negative exponents (written e-7, not e-07),
// subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
	1e-7, 1.5e-9, 9.999e-7, 1e-10, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e22, 1.2345e100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 123456789e-15, 92.43284371825611,
}

// sessionIDs mixes the ids the daemon mints with ones encoding/json
// escapes (HTML-unsafe, control, quote, backslash, non-ASCII, invalid
// UTF-8) and DEL, which it writes as is.
var sessionIDs = []string{"s-000001", "s-4294967296", "", "a<b>&c", "tab\there", `q"uote`, `back\slash`,
	"é", " ", "\xff\xfe", "del\x7f"}

// TestIterLineMatchesEncodingJSON holds the iter-line codec to
// encoding/json over random bit patterns and the edge values: the same
// bytes out, the same record back in. A non-finite value fails both.
func TestIterLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	float := func() float64 {
		if rng.Intn(4) == 0 {
			return edgeFloats[rng.Intn(len(edgeFloats))]
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	var line []byte
	for i := 0; i < n; i++ {
		id := sessionIDs[rng.Intn(len(sessionIDs))]
		rec := iterRec{NextNow: float(), DoneNow: float(), EnergyJ: float(), EnergyErr: rng.Intn(2) == 0, Accuracy: float()}
		switch rng.Intn(4) {
		case 0:
		case 1:
			rec.ClientJ = math.Copysign(0, -1)
		default:
			rec.ClientJ = float()
		}
		switch rng.Intn(4) {
		case 0:
		case 1:
			rec.State = []byte{}
		default:
			rec.State = make([]byte, 1+rng.Intn(100))
			rng.Read(rec.State)
		}
		want, err := jsonIterLine(id, rec)
		if err != nil {
			t.Fatal(err)
		}
		sid := quoteSID(id)
		if line, err = appendIterLine(line[:0], sid, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("record %d (%+v, id %q):\n codec %s\n  json %s", i, rec, id, line, want)
		}
		raw := line[:len(line)-1]
		var ref snapLine
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatal(err)
		}
		gotSID, got, ok := decodeIterLine(raw)
		if !ok {
			if !strings.ContainsFunc(id, func(r rune) bool { return r >= 0x7f || !plainJSON(byte(r)) }) {
				t.Fatalf("record %d: the fast decoder refused its own line %s", i, raw)
			}
			continue
		}
		if !sameSnapLine(snapLine{Kind: "iter", snapIter: snapIter{SID: string(gotSID), iterRec: got}}, ref) {
			t.Fatalf("record %d: the fast decoder read %s as %+v, encoding/json as %+v", i, raw, got, ref.iterRec)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 5; field++ {
			rec := iterRec{NextNow: 1, DoneNow: 2, EnergyJ: 3, Accuracy: 0.5, ClientJ: 4}
			*[...]*float64{&rec.NextNow, &rec.DoneNow, &rec.EnergyJ, &rec.Accuracy, &rec.ClientJ}[field] = bad
			if _, err := jsonIterLine("s-000001", rec); err == nil {
				t.Fatalf("encoding/json accepted %v", bad)
			}
			if _, err := appendIterLine(nil, []byte(`"s-000001"`), &rec); err == nil {
				t.Errorf("the codec wrote %v in field %d", bad, field)
			}
		}
	}
}

// TestSnapshotLinesAreEncodingJSONs checks a real snapshot — a session
// past a checkpoint amid failed meter readings, a metering daemon's
// session with client counters — line by line: every iter line is the
// bytes encoding/json writes for the record it carries, and it takes the
// fast decoder.
func TestSnapshotLinesAreEncodingJSONs(t *testing.T) {
	src, _ := fuzzSource(t)
	rig := newCutRig(t, 4)
	metered := cutServer(t, rig)
	sess := cutRegister(t, metered, 5, 100)
	(&cutTrace{}).drive(t, metered, sess, testbed(t, "radar", "Tablet").Machine(), cutRegime{errEvery: 7, meter: true}, 0, 40)
	for _, srv := range []*Server{src, metered} {
		var snap bytes.Buffer
		if err := srv.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		iters, clientJ := 0, false
		sc := bufio.NewScanner(&snap)
		sc.Buffer(nil, maxSnapshotLine)
		for sc.Scan() {
			var rec snapLine
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Kind != "iter" {
				continue
			}
			iters++
			clientJ = clientJ || rec.ClientJ != 0
			want, err := jsonIterLine(rec.SID, rec.iterRec)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(sc.Bytes(), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("snapshot line\n %s\nencoding/json writes\n %s", got, want)
			}
			if _, _, ok := decodeIterLine(sc.Bytes()); !ok {
				t.Fatalf("the fast decoder refused a snapshot line: %.80s", sc.Bytes())
			}
		}
		if iters == 0 || (srv == metered) != clientJ {
			t.Fatalf("snapshot of %d iter lines, client counters %v", iters, clientJ)
		}
	}
}

// poison puts a non-finite clock reading into a live session's log, as
// only a damaged record could.
func poison(t *testing.T, srv *Server) {
	t.Helper()
	sess := srv.sessions.allSorted()[0]
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if len(sess.log) == 0 {
		t.Fatal("no record to poison")
	}
	sess.log[len(sess.log)-1].DoneNow = math.Inf(1)
}

// TestSnapshotFileLeavesNoTemp pins SnapshotFile's failure path: a
// snapshot that cannot be written (here, a record JSON cannot carry)
// fails, leaves the previous snapshot in place and no temp file behind.
func TestSnapshotFileLeavesNoTemp(t *testing.T) {
	srv := cutServer(t, nil)
	sess := cutRegister(t, srv, 3, 50)
	(&cutTrace{}).drive(t, srv, sess, testbed(t, "radar", "Tablet").Machine(), cutRegime{}, 0, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.jsonl")
	if err := srv.SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	poison(t, srv)
	if err := srv.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("snapshot of a non-finite record succeeded")
	}
	if err := srv.SnapshotFile(path); err == nil {
		t.Fatal("SnapshotFile of a non-finite record succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.jsonl" {
		t.Fatalf("directory after a failed snapshot: %v", entries)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
		t.Fatalf("a failed snapshot changed the previous one (%v)", err)
	}
}

// TestRestoreLongCheckpointLine restores a 1,024-arm session (x264 on
// the Server platform) past several checkpoints: its checkpoint line is
// longer than the scanner's first buffer (bufio's 4 KiB), which must grow
// to it.
func TestRestoreLongCheckpointLine(t *testing.T) {
	srv := cutServer(t, nil)
	resp, err := srv.Register(wire.RegisterRequest{
		Tenant: "t", App: "x264", Platform: "Server", Key: "wide",
		Iterations: 20_000, Factor: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, werr := srv.lookup(resp.SessionID)
	if werr != nil {
		t.Fatal(werr)
	}
	const settles = 4*checkpointEvery + 3
	(&cutTrace{}).drive(t, srv, sess, testbed(t, "x264", "Server").Machine(), cutRegime{errEvery: 13}, 0, settles)
	var snap bytes.Buffer
	if err := srv.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, l := range bytes.Split(snap.Bytes(), []byte("\n")) {
		longest = max(longest, len(l))
	}
	t.Logf("checkpoint line: %d bytes", longest)
	if longest <= 4<<10 {
		t.Fatalf("longest line %d bytes; the test wants one well past the scanner's first buffer", longest)
	}
	dst := cutServer(t, nil)
	if err := dst.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if x := dst.Export(nil)[0]; x.Done != settles || x.SpentJ != sess.spent() {
		t.Fatalf("restored at %d iterations / %.17g J, source at %d / %.17g J", x.Done, x.SpentJ, settles, sess.spent())
	}
}

// FuzzSnapshotLine holds the fast iter-line decoder to encoding/json:
// whatever the bytes, a line the fast path accepts is one json.Unmarshal
// accepts too, into the same snapLine (signed zeros and a nil State told
// apart). Lines it refuses are Restore's json.Unmarshal path, which
// FuzzRestore covers.
func FuzzSnapshotLine(f *testing.F) {
	src, _ := fuzzSource(f)
	var snap bytes.Buffer
	if err := src.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	corpus := [][]byte{snap.Bytes()}
	for _, name := range []string{"testdata/snapshot_v1.jsonl", "testdata/snapshot_v2.jsonl"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, raw)
	}
	for _, raw := range corpus {
		for _, l := range bytes.Split(raw, []byte("\n")) {
			f.Add(l)
		}
	}
	for _, l := range []string{
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1,"state":""}`,
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1,"state":null}`,
		`{"kind":"iter","sid":"s-000001","next_now":null,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1,"client_j":0}`,
		`{"kind":"iter","sid":"s-000001","next_now":-0,"done_now":2e-7,"energy_j":3E+2,"energy_err":true,"accuracy":1,"client_j":-0.5}`,
		`{"kind":"iter","sid":"s-000001","done_now":2,"next_now":1,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter", "sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1} `,
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"a<b","next_now":1,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"é","next_now":1,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"s-000001","next_now":01,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"s-000001","next_now":1e400,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1,"state":"QUJD"}`,
		"{\"kind\":\"iter\",\"sid\":\"s-000001\",\"next_now\":1,\"done_now\":2,\"energy_j\":3,\"accuracy\":1,\"state\":\"QU\rJD\"}",
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1,"state":"QUJ"}`,
		`{"KIND":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"accuracy":1}`,
		`{"kind":"iter","sid":"s-000001","next_now":1,"done_now":2,"energy_j":3,"energy_err":false,"accuracy":1}`,
	} {
		f.Add([]byte(l))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		sid, rec, ok := decodeIterLine(line)
		if !ok {
			return
		}
		var want snapLine
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("the fast decoder accepted a line encoding/json refuses (%v): %q", err, line)
		}
		got := snapLine{Kind: "iter", snapIter: snapIter{SID: string(sid), iterRec: rec}}
		if !sameSnapLine(got, want) {
			t.Fatalf("%q\n fast decoder: %+v (nil state %v)\nencoding/json: %+v (nil state %v)",
				line, got.iterRec, got.State == nil, want.iterRec, want.State == nil)
		}
	})
}
