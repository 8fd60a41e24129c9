package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	exactsim "github.com/exactsim/exactsim"
)

// The /v1/query answer codec. An answer is dominated by its score vector
// (a full single-source result: 100k floats, ~2.2 MB of JSON on a 100k-
// node graph), and encoding/json's reflection and validation passes over
// it cost far more than the query itself when the answer is a cache hit.
// The codec hand-writes only the vector and the scalars; every small
// member (the request echo, top_k, plan, error, the algorithm string)
// still goes through encoding/json, so string escaping and omitempty stay
// the library's. DESIGN.md §6 states the contract.

// appendResponse appends to b exactly the bytes json.NewEncoder(w).Encode
// writes for resp, trailing newline included. It fails, as encoding/json
// does, only on a NaN or infinite float.
func appendResponse(b []byte, resp *exactsim.Response) ([]byte, error) {
	b = append(b, `{"request":`...)
	b, err := appendMarshal(b, resp.Request)
	if err != nil {
		return b, err
	}
	if res := resp.Result; res != nil {
		b = append(b, `,"result":{"algorithm":`...)
		if b, err = appendMarshal(b, res.Algorithm); err != nil {
			return b, err
		}
		b = append(b, `,"scores":`...)
		if b, err = appendScores(b, res.Scores); err != nil {
			return b, err
		}
		b = append(b, `,"query_time_ns":`...)
		b = strconv.AppendInt(b, int64(res.QueryTime), 10)
		b = append(b, '}')
	}
	if len(resp.TopK) > 0 {
		b = append(b, `,"top_k":`...)
		if b, err = appendMarshal(b, resp.TopK); err != nil {
			return b, err
		}
	}
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, resp.CacheHit)
	b = append(b, `,"graph_epoch":`...)
	b = strconv.AppendUint(b, resp.GraphEpoch, 10)
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if resp.Plan != nil {
		b = append(b, `,"plan":`...)
		if b, err = appendMarshal(b, resp.Plan); err != nil {
			return b, err
		}
	}
	if resp.Partial {
		b = append(b, `,"partial":true`...)
	}
	if resp.AchievedEpsilon != 0 {
		b = append(b, `,"achieved_epsilon":`...)
		if b, err = appendFloat(b, resp.AchievedEpsilon); err != nil {
			return b, err
		}
	}
	if resp.Err != nil {
		b = append(b, `,"error":`...)
		if b, err = appendMarshal(b, resp.Err); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

func appendMarshal(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// appendScores writes a score vector as encoding/json does: null for a
// nil slice, [] for an empty one.
func appendScores(b []byte, scores []float64) ([]byte, error) {
	if scores == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range scores {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat formats f the way encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent written without its
// leading zero (e-7, not e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("httpapi: unsupported float value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// encodeBuffers recycles answer encodings: one answer is megabytes, so a
// fresh buffer per answer would be most of what the handler allocates.
var encodeBuffers = sync.Pool{New: func() any { return new([]byte) }}

// maxDepth bounds the nesting of an answer body. An answer nests three
// deep; the bound is for unknown members a newer server might add, and
// keeps a hostile body from recursing without limit.
const maxDepth = 64

// DecodeResponse decodes one /v1/query answer body into resp in a single
// pass. It accepts only what json.Valid accepts, one JSON object and
// nothing after it but whitespace, nested at most 64 deep. The score
// vector must be null or an array of numbers, each within float64 range.
// Unknown members are skipped, though still validated. Member names match
// exactly as the encoder writes them: unlike encoding/json, no case
// folding, and a name spelled with escapes is an unknown member. The
// small members decode through encoding/json.
func DecodeResponse(data []byte, resp *exactsim.Response) error {
	*resp = exactsim.Response{}
	s := scanner{data: data}
	err := s.document(func(key []byte) error {
		switch string(key) {
		case "request":
			return s.unmarshal(1, &resp.Request)
		case "result":
			return s.result(&resp.Result)
		case "top_k":
			if err := s.unmarshal(1, &resp.TopK); err != nil {
				return err
			}
			// The encoder omits an empty top_k; decoding it as nil keeps
			// decode and encode inverse to each other.
			if len(resp.TopK) == 0 {
				resp.TopK = nil
			}
			return nil
		case "cache_hit":
			return s.unmarshal(1, &resp.CacheHit)
		case "graph_epoch":
			return s.unmarshal(1, &resp.GraphEpoch)
		case "degraded":
			return s.unmarshal(1, &resp.Degraded)
		case "plan":
			return s.unmarshal(1, &resp.Plan)
		case "partial":
			return s.unmarshal(1, &resp.Partial)
		case "achieved_epsilon":
			return s.unmarshal(1, &resp.AchievedEpsilon)
		case "error":
			return s.unmarshal(1, &resp.Err)
		}
		return s.skip(1)
	})
	if err != nil {
		*resp = exactsim.Response{}
	}
	return err
}

// scanResponse checks that data is one well-formed JSON object with
// nothing after it, by the scan DecodeResponse makes, without decoding
// anything: the check a relay makes before forwarding a body it does not
// need to read.
func scanResponse(data []byte) error {
	s := scanner{data: data}
	return s.document(func([]byte) error { return s.skip(1) })
}

// scanner walks a JSON body, validating as it goes.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) fail(what string) error {
	if s.i >= len(s.data) {
		return errors.New("httpapi: malformed answer: unexpected end of input")
	}
	return fmt.Errorf("httpapi: malformed answer: %s at offset %d (byte %q)", what, s.i, s.data[s.i])
}

func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// document parses the top-level object, handing each member's name to
// member (which must consume the value), and rejects trailing bytes.
func (s *scanner) document(member func(key []byte) error) error {
	if !s.consume('{') {
		return s.fail("answer is not a JSON object")
	}
	if err := s.members(member); err != nil {
		return err
	}
	s.ws()
	if s.i != len(s.data) {
		return s.fail("trailing bytes after the answer")
	}
	return nil
}

// members parses an object's members after its opening brace, through
// its closing one.
func (s *scanner) members(member func(key []byte) error) error {
	if s.consume('}') {
		return nil
	}
	for {
		s.ws()
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.consume(':') {
			return s.fail("missing ':' after object key")
		}
		if err := member(key); err != nil {
			return err
		}
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return nil
		}
		return s.fail("missing ',' or '}' in object")
	}
}

// skip validates and steps over one value at the given nesting depth.
func (s *scanner) skip(depth int) error {
	s.ws()
	if s.i >= len(s.data) {
		return s.fail("")
	}
	switch c := s.data[s.i]; c {
	case '{', '[':
		if depth >= maxDepth {
			return s.fail("nesting too deep")
		}
		s.i++
		if c == '{' {
			return s.members(func([]byte) error { return s.skip(depth + 1) })
		}
		if s.consume(']') {
			return nil
		}
		for {
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			if s.consume(',') {
				continue
			}
			if s.consume(']') {
				return nil
			}
			return s.fail("missing ',' or ']' in array")
		}
	case '"':
		_, err := s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.number()
	return err
}

// unmarshal steps over one value and decodes it with encoding/json.
func (s *scanner) unmarshal(depth int, v any) error {
	start := s.i
	if err := s.skip(depth); err != nil {
		return err
	}
	if err := json.Unmarshal(s.data[start:s.i], v); err != nil {
		return fmt.Errorf("httpapi: malformed answer: %w", err)
	}
	return nil
}

func (s *scanner) literal(word string) error {
	if len(s.data)-s.i < len(word) || string(s.data[s.i:s.i+len(word)]) != word {
		return s.fail("invalid literal")
	}
	s.i += len(word)
	return nil
}

// str steps over one string and returns its raw contents, escapes
// unresolved. Like json.Valid it checks escapes and control characters,
// not UTF-8 (encoding/json substitutes U+FFFD when it decodes).
func (s *scanner) str() ([]byte, error) {
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return nil, s.fail("expected a string")
	}
	s.i++
	start := s.i
	for s.i < len(s.data) {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], nil
		case c < 0x20:
			return nil, s.fail("control character in string")
		case c == '\\':
			s.i++
			if s.i >= len(s.data) {
				return nil, s.fail("")
			}
			switch s.data[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				for k := 0; k < 4; k++ {
					if s.i >= len(s.data) || !isHex(s.data[s.i]) {
						return nil, s.fail("invalid \\u escape")
					}
					s.i++
				}
			default:
				return nil, s.fail("invalid escape")
			}
		default:
			s.i++
		}
	}
	return nil, s.fail("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number steps over one number, checked against the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (s *scanner) number() ([]byte, error) {
	d, start := s.data, s.i
	i := s.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		s.i = i
		return nil, s.fail("invalid value")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			s.i = i
			return nil, s.fail("invalid number")
		}
		for ; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.i = i
			return nil, s.fail("invalid number")
		}
		for ; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	s.i = i
	return d[start:i], nil
}

// result decodes the "result" member: null, or an object whose score
// vector is parsed here and whose other members go through encoding/json.
func (s *scanner) result(dst **exactsim.QueryResult) error {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == 'n' {
		*dst = nil
		return s.literal("null")
	}
	if !s.consume('{') {
		return s.fail("result is not an object")
	}
	res := new(exactsim.QueryResult)
	*dst = res
	return s.members(func(key []byte) error {
		switch string(key) {
		case "algorithm":
			return s.unmarshal(2, &res.Algorithm)
		case "scores":
			return s.scores(&res.Scores)
		case "query_time_ns":
			return s.unmarshal(2, &res.QueryTime)
		}
		return s.skip(2)
	})
}

// scores parses the score vector: null, or an array of numbers.
func (s *scanner) scores(dst *[]float64) error {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == 'n' {
		*dst = nil
		return s.literal("null")
	}
	if !s.consume('[') {
		return s.fail("scores is not an array")
	}
	out := make([]float64, 0, s.countHint())
	if s.consume(']') {
		*dst = out
		return nil
	}
	for {
		s.ws()
		num, err := s.number()
		if err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("httpapi: malformed answer: score %w", err)
		}
		out = append(out, f)
		if s.consume(',') {
			continue
		}
		if s.consume(']') {
			*dst = out
			return nil
		}
		return s.fail("missing ',' or ']' in scores")
	}
}

// countHint sizes the score slice: the elements up to the next ']',
// counted by their separators. Numbers contain neither byte, so on a
// well-formed vector the hint is exact; on anything else it is only a
// capacity, no larger than the bytes could hold as numbers, and the
// parse that follows still checks every byte.
func (s *scanner) countHint() int {
	rest := s.data[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{','}), len(rest)/2) + 1
}
