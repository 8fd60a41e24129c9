package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"testing"
	"time"

	exactsim "github.com/exactsim/exactsim"
	"github.com/exactsim/exactsim/httpapi"
)

// sampleScores is n seeded scores shaped like a single-source SimRank
// vector: s(source) = 1, a tenth exact zeros, a few below 1e-6 (which
// encode in exponent form), the rest small positives.
func sampleScores(n int) []float64 {
	rng := rand.New(rand.NewPCG(7, uint64(n)))
	scores := make([]float64, n)
	for i := range scores {
		switch {
		case i%10 == 0:
		case i%97 == 0:
			scores[i] = rng.Float64() * 1e-7
		default:
			scores[i] = rng.Float64() * 0.01
		}
	}
	scores[n/2] = 1
	return scores
}

// sampleAnswer is a cached top-k answer over sampleScores(n), as a
// replica serves it.
func sampleAnswer(n int) exactsim.Response {
	return exactsim.Response{
		Request: exactsim.Request{Algorithm: "prsim", Source: exactsim.NodeID(n / 2), K: 3, Epsilon: 0.01},
		Result: &exactsim.QueryResult{Algorithm: "prsim", Scores: sampleScores(n),
			QueryTime: 149 * time.Millisecond},
		TopK:       []exactsim.Entry{{Idx: 1, Val: 0.25}, {Idx: 9, Val: 0.125}, {Idx: 4, Val: 5e-7}},
		CacheHit:   true,
		GraphEpoch: 3,
		Plan:       &exactsim.PlanInfo{Algorithm: "prsim", EffectiveEpsilon: 0.01, Reason: "large-power-law"},
	}
}

// wireCorpus is every shape the codec must write as encoding/json does.
func wireCorpus() map[string]exactsim.Response {
	result := func(scores ...float64) *exactsim.QueryResult {
		return &exactsim.QueryResult{Algorithm: "exactsim", Scores: scores, QueryTime: 12345}
	}
	towards0 := func(f float64) float64 { return math.Nextafter(f, 0) }
	fail := func(msg string) *exactsim.Error {
		return &exactsim.Error{Code: exactsim.CodeInvalidArgument, Message: msg}
	}
	return map[string]exactsim.Response{
		"100k scores": sampleAnswer(100_000),
		"extremes": {Result: result(0, math.Copysign(0, -1), 1, 5e-324, -5e-324,
			math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0/3, 123456789)},
		"exponent switch": {Result: result(1e-6, towards0(1e-6), -1e-6, -towards0(1e-6),
			1e21, towards0(1e21), -1e21, -towards0(1e21), 1e-7, 1.5e-10, 2e-100, 1e100)},
		"nil scores":   {Result: result()},
		"empty scores": {Result: &exactsim.QueryResult{Algorithm: "mc", Scores: []float64{}}},
		"nil result":   {Request: exactsim.Request{Source: 4}, GraphEpoch: 1},
		"zero":         {},
		"top-k and plan": {
			Request: exactsim.Request{Source: 2, K: 2, Priority: exactsim.PriorityBatch},
			Result:  result(0.5, 1, 0.25), TopK: []exactsim.Entry{{Idx: 0, Val: 0.5}, {Idx: 2, Val: 0.25}},
			Plan: &exactsim.PlanInfo{Algorithm: "exactsim", EffectiveEpsilon: 1e-7, Reason: "tight-epsilon"},
		},
		"partial": {Request: exactsim.Request{Source: 1, AllowPartial: true}, Result: result(1, 0.03),
			Partial: true, AchievedEpsilon: 0.016, GraphEpoch: 9},
		"partial tiny epsilon": {Result: result(1), Partial: true, AchievedEpsilon: 2.5e-7},
		"degraded": {Request: exactsim.Request{Algorithm: "mc", Source: 3, AllowDegraded: true},
			Result: result(1, 0), Degraded: true},
		"error html":  {Err: fail(`source <5> & "friends"`)},
		"error u2028": {Err: fail("line\u2028separator\u2029paragraph")},
		"error invalid utf8": {Request: exactsim.Request{Algorithm: "ex\xffact"},
			Err: fail("bad \xc3\x28 bytes \xff")},
		"error control": {Err: &exactsim.Error{Code: exactsim.CodeUnavailable,
			Message: "tab\t nl\n nul\x00 bell\x07 del\x7f quote\" backslash\\", RetryAfterMillis: 40}},
	}
}

// stdEncode is the reference: the bytes the server wrote with
// encoding/json.
func stdEncode(t testing.TB, resp exactsim.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameResponse reports how two answers differ: scores bit for bit, every
// other field by value ("" when they agree).
func sameResponse(a, b exactsim.Response) string {
	if (a.Result == nil) != (b.Result == nil) {
		return "result presence differs"
	}
	if a.Result != nil {
		sa, sb := a.Result.Scores, b.Result.Scores
		if (sa == nil) != (sb == nil) || len(sa) != len(sb) {
			return "score vectors differ in length or nil-ness"
		}
		for i := range sa {
			if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
				return "score bits differ"
			}
		}
		ra, rb := *a.Result, *b.Result
		ra.Scores, rb.Scores = nil, nil
		a.Result, b.Result = &ra, &rb
	}
	if !reflect.DeepEqual(a, b) {
		return "fields differ"
	}
	return ""
}

// TestResponseWireBytes pins the codec to encoding/json: every answer in
// the corpus encodes to the same bytes, as an answer and as a stream
// record, and both decoders read those bytes back to the same answer,
// scores bit for bit.
func TestResponseWireBytes(t *testing.T) {
	for name, resp := range wireCorpus() {
		t.Run(name, func(t *testing.T) {
			want := stdEncode(t, resp)
			got, err := httpapi.AppendResponse(nil, &resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("codec bytes differ from encoding/json at offset %d:\n codec: %.80q\n  json: %.80q",
					i, got[i:], want[i:])
			}
			var codec, std exactsim.Response
			if err := httpapi.DecodeResponse(want, &codec); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &std); err != nil {
				t.Fatal(err)
			}
			if diff := sameResponse(codec, std); diff != "" {
				t.Fatalf("codec and encoding/json decode differently: %s\n codec: %+v\n  json: %+v", diff, codec, std)
			}
			if resp.Result != nil && sameResponse(exactsim.Response{Result: resp.Result},
				exactsim.Response{Result: codec.Result}) != "" {
				t.Fatal("decoded scores are not bit-identical to the encoded ones")
			}
			if err := httpapi.ScanResponse(want); err != nil {
				t.Fatalf("relay scan rejected a well-formed answer: %v", err)
			}
			for _, final := range []bool{false, true} {
				rec := httpapi.StreamRecord{Response: resp, Final: final}
				var std bytes.Buffer
				if err := json.NewEncoder(&std).Encode(rec); err != nil {
					t.Fatal(err)
				}
				got, err := httpapi.AppendRecord(nil, &rec)
				if err != nil || !bytes.Equal(got, std.Bytes()) {
					t.Fatalf("record (final=%v) bytes differ from encoding/json (%v):\n codec: %.120q\n  json: %.120q",
						final, err, got, std.Bytes())
				}
			}
		})
	}
}

// TestResponseWireRejectsDamage: a truncated answer, or one with any
// single byte set to 0x01 (the fault model's corruption), fails both the
// decoder and the relay scan; a NaN or infinite float fails to encode.
func TestResponseWireRejectsDamage(t *testing.T) {
	resp := sampleAnswer(12)
	resp.AchievedEpsilon, resp.Partial = 0.004, true
	resp.Err = &exactsim.Error{Code: exactsim.CodeInternal, Message: "x"}
	data, err := httpapi.AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	closing := bytes.LastIndexByte(data, '}')
	for n := 0; n <= closing; n++ {
		var got exactsim.Response
		if httpapi.DecodeResponse(data[:n], &got) == nil {
			t.Fatalf("a %d-byte prefix of %d decoded", n, len(data))
		}
		if httpapi.ScanResponse(data[:n]) == nil {
			t.Fatalf("a %d-byte prefix of %d passed the relay scan", n, len(data))
		}
	}
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] = 0x01
		var got exactsim.Response
		if httpapi.DecodeResponse(bad, &got) == nil {
			t.Fatalf("0x01 at offset %d decoded", i)
		}
		if !reflect.DeepEqual(got, exactsim.Response{}) {
			t.Fatalf("0x01 at offset %d left a half-decoded answer: %+v", i, got)
		}
		if httpapi.ScanResponse(bad) == nil {
			t.Fatalf("0x01 at offset %d passed the relay scan", i)
		}
	}

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		scores := exactsim.Response{Result: &exactsim.QueryResult{Scores: []float64{0.5, f}}}
		if _, err := httpapi.AppendResponse(nil, &scores); err == nil {
			t.Fatalf("score %v encoded", f)
		}
		eps := exactsim.Response{Partial: true, AchievedEpsilon: f}
		if _, err := httpapi.AppendResponse(nil, &eps); err == nil {
			t.Fatalf("achieved_epsilon %v encoded", f)
		}
	}
}

// FuzzDecodeResponse: the decoder every client runs on untrusted answer
// bytes never panics, accepts only what json.Valid accepts (and what the
// relay scan accepts), and decode → encode → decode is a fixpoint.
func FuzzDecodeResponse(f *testing.F) {
	corpus := wireCorpus()
	corpus["100k scores"] = sampleAnswer(64)
	for _, resp := range corpus {
		data, err := httpapi.AppendResponse(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	small := corpus["top-k and plan"]
	data, err := httpapi.AppendResponse(nil, &small)
	if err != nil {
		f.Fatal(err)
	}
	for i := range data {
		f.Add(data[:i])
		bad := bytes.Clone(data)
		bad[i] = 0x01
		f.Add(bad)
	}
	for _, s := range []string{`{"result":{"scores":[1e999]}}`, `{"result":{"scores":[1,null]}}`,
		`{"x":[[[[[[[[[[]]]]]]]]]],"top_k":[]}`, `{"Result":{}}`, `{"res\u0075lt":{}}`, `{} {}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d1 exactsim.Response
		if err := httpapi.DecodeResponse(data, &d1); err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("decoded bytes json.Valid rejects: %q", data)
		}
		if err := httpapi.ScanResponse(data); err != nil {
			t.Fatalf("decoded bytes the relay scan rejects: %v", err)
		}
		enc, err := httpapi.AppendResponse(nil, &d1)
		if err != nil {
			t.Fatalf("a decoded answer does not encode: %v", err)
		}
		var d2 exactsim.Response
		if err := httpapi.DecodeResponse(enc, &d2); err != nil {
			t.Fatalf("an encoded answer does not decode: %v\n%q", err, enc)
		}
		if diff := sameResponse(d1, d2); diff != "" {
			t.Fatalf("decode → encode → decode is not a fixpoint: %s\n d1: %+v\n d2: %+v", diff, d1, d2)
		}
	})
}

// FuzzQueryRequest: the request envelopes every server decodes never
// panic, and an accepted envelope re-marshals and unmarshals to itself,
// timeout_ms included. The same bytes are tried as a query, a batch and
// a warm request: one server decodes all three for both tiers.
func FuzzQueryRequest(f *testing.F) {
	for _, s := range []string{
		`{"source":5}`,
		`{"source":1,"k":3,"epsilon":0.01,"timeout_ms":250}`,
		`{"algorithm":"exactsim","source":2,"no_cache":true,"priority":"batch",` +
			`"allow_degraded":true,"allow_partial":true,"timeout_ms":1}`,
		`{}`, `null`, `{"timeout_ms":-5}`, `{"TIMEOUT_MS":7,"Source":3}`,
		`{"source":1,"timeout_ms":1.5}`, `{"source":"1"}`, `{"epsilon":-0}`, `[]`,
		`{"algorithm":"a\u2028\ud800"}`,
		`{"requests":[{"source":1},{"source":2,"k":3,"priority":"background"}],"timeout_ms":40}`,
		`{"requests":[]}`, `{"requests":null}`, `{"requests":[null,{}]}`,
		`{"sources":[1,2],"top_degree":3,"epsilon":0.01,"timeout_ms":9}`,
		`{"sources":[]}`, `{"top_degree":-1}`, `{"sources":[1.5]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		envelopeFixpoint[httpapi.Batch](t, data)
		envelopeFixpoint[exactsim.WarmRequest](t, data)
		var in httpapi.QueryRequest
		if json.Unmarshal(data, &in) != nil {
			return
		}
		out, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("an accepted envelope does not marshal: %v", err)
		}
		var back httpapi.QueryRequest
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("a marshalled envelope does not unmarshal: %v\n%s", err, out)
		}
		if back != in {
			t.Fatalf("envelope round trip changed it:\n in: %+v\nout: %+v\nwire: %s", in, back, out)
		}
	})
}

// envelopeFixpoint requires bytes accepted as an Envelope[T] to encode
// to a fixpoint: marshal, unmarshal and marshal again give the same
// bytes and the same timeout. Bytes equality, not struct equality: an
// empty list and an absent one both encode as absent under omitempty.
func envelopeFixpoint[T any](t *testing.T, data []byte) {
	t.Helper()
	var in httpapi.Envelope[T]
	if json.Unmarshal(data, &in) != nil {
		return
	}
	out, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("an accepted %T envelope does not marshal: %v", in.Body, err)
	}
	var back httpapi.Envelope[T]
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("a marshalled %T envelope does not unmarshal: %v\n%s", in.Body, err, out)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(again, out) || back.TimeoutMillis != in.TimeoutMillis {
		t.Fatalf("%T envelope round trip changed it (%v):\n  once: %s\n twice: %s", in.Body, err, out, again)
	}
}

// stubTransport answers every request with a 200 carrying its bytes as
// the body, without a socket.
type stubTransport []byte

func (b stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		Status:     "200 OK",
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// FuzzQueryStream: the NDJSON reader every client and router runs on an
// untrusted /v1/query/stream body never panics, and ends every 200 body
// in one of two ways: a final record, or a coded unavailable error.
// Records are read by the answer codec's rules: split the body into
// lines as the client does, and every record it passes to emit, or
// returns, is DecodeResponse of its line.
func FuzzQueryStream(f *testing.F) {
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	enc.Encode(httpapi.StreamRecord{Response: exactsim.Response{Partial: true, AchievedEpsilon: 0.064,
		Result: &exactsim.QueryResult{Algorithm: "exactsim", Scores: []float64{1, 0.25, 0}}}})
	enc.Encode(httpapi.StreamRecord{Response: sampleAnswer(8), Final: true})
	data := stream.Bytes()
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2, len(data)} {
		f.Add(data[:cut])
	}
	for _, s := range []string{
		`{"final":true}`, `{"final":false}` + "\n" + `{"final":true,"error":{"code":"not_found","message":"x"}}`,
		`null`, `[]`, `{"final":"yes"}`, `{"FINAL":true}`, `{"final":true,"result":{"scores":[1e999]}}`,
		`{"final":true,"top_k":[{"idx":-1}],"plan":{}}`, "\x00\xff",
		`{"FINAL":true,"Result":{"Scores":[0.5]}}` + "\n" + `{"final":true}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := httpapi.NewClient("http://stub.invalid",
			httpapi.WithHTTPClient(&http.Client{Transport: stubTransport(data)}))
		if err != nil {
			t.Fatal(err)
		}
		var passed []exactsim.Response
		final, err := c.QueryStream(context.Background(), exactsim.Request{Source: 1},
			func(r exactsim.Response) { passed = append(passed, r) })
		if err == nil {
			passed = append(passed, final)
		} else {
			var pe *exactsim.Error
			if !errors.As(err, &pe) || pe.Code != exactsim.CodeUnavailable {
				t.Fatalf("a stream body ended in %v, not a final record or a coded unavailable", err)
			}
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i, got := range passed {
			var want exactsim.Response
			if err := httpapi.DecodeResponse(lines[i], &want); err != nil {
				t.Fatalf("record %d was passed on, but DecodeResponse rejects its bytes: %v\n%q", i, err, lines[i])
			}
			if diff := sameResponse(got, want); diff != "" {
				t.Fatalf("record %d differs from DecodeResponse of its bytes: %s\n got: %+v\nwant: %+v",
					i, diff, got, want)
			}
		}
	})
}
