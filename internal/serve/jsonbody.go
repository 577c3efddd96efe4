package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// The JSON decode-request body, {"traces":[[n,…],…]}, is parsed by a
// purpose-built scanner instead of encoding/json: the body is read once,
// every sample is converted with the same strconv.ParseFloat call
// encoding/json makes (so the values are bit-identical), and all samples
// land in one contiguous slab that is sliced into traces only at the end.
//
// The scanner accepts exactly what encoding/json (with
// DisallowUnknownFields) accepts for this shape, including its quirks: a
// null body, a null "traces" and a null trace decode to nothing, and a
// null sample decodes to 0. It is deliberately stricter in three ways,
// each a 400:
//
//   - the key must be spelled exactly "traces": encoding/json also matches
//     case variants ("Traces", "TRACES") and escaped spellings
//     ("trac\u0065s");
//   - the key may appear only once: encoding/json decodes a repeated key
//     into the previous value's storage, so a null sample in the second
//     copy would silently keep the first copy's value;
//   - nothing but whitespace may follow the object: encoding/json's
//     Decoder stops after the first value and ignores the rest, while the
//     binary frame already rejects trailing bytes.

var (
	errEmptyBatch = errors.New("empty batch: provide at least one trace")
	errJSONEnd    = errors.New("invalid JSON body: unexpected end of input")
)

// readBody reads the whole body: into one buffer of the declared size when
// the client sent a Content-Length, by growing a buffer otherwise.
func readBody(body io.Reader, contentLength, maxBytes int64) ([]byte, error) {
	if contentLength < 0 {
		return io.ReadAll(body)
	}
	if contentLength > maxBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte body limit", contentLength, maxBytes)
	}
	b := make([]byte, contentLength)
	if _, err := io.ReadFull(body, b); err != nil {
		return nil, err
	}
	return b, nil
}

// parseJSONTraces parses a JSON decode-request body whose traces must each
// hold traceLen samples.
func parseJSONTraces(b []byte, traceLen int) ([][]float64, error) {
	s := jsonScanner{b: b, traceLen: traceLen}
	if err := s.body(); err != nil {
		return nil, err
	}
	if s.n == 0 {
		return nil, errEmptyBatch
	}
	traces := make([][]float64, s.n)
	for k := range traces {
		lo, hi := k*traceLen, (k+1)*traceLen
		traces[k] = s.slab[lo:hi:hi]
	}
	return traces, nil
}

// jsonScanner walks one body left to right; i is the read offset.
type jsonScanner struct {
	b        []byte
	i        int
	traceLen int
	slab     []float64 // the samples of every complete trace, in order
	n        int       // complete traces
	first    int       // offset of the traces array's '['
}

const tracesKey = `"traces"`

// body parses the top-level value and checks nothing follows it.
func (s *jsonScanner) body() error {
	s.ws()
	if s.null() {
		return s.end()
	}
	if !s.consume('{') {
		return s.syntax("looking for the request object")
	}
	s.ws()
	if s.consume('}') {
		return s.end()
	}
	if !s.key() {
		return s.unknownKey()
	}
	s.ws()
	if !s.consume(':') {
		return s.syntax(`after the "traces" key`)
	}
	s.ws()
	if err := s.batch(); err != nil {
		return err
	}
	s.ws()
	if s.consume(',') {
		s.ws()
		if s.key() {
			return errors.New(`invalid JSON body: duplicate field "traces"`)
		}
		return s.unknownKey()
	}
	if !s.consume('}') {
		return s.syntax("after the traces array")
	}
	return s.end()
}

// batch parses the value of "traces": null or an array of traces.
func (s *jsonScanner) batch() error {
	if s.null() {
		return nil
	}
	if !s.consume('[') {
		return s.syntax("looking for the traces array")
	}
	s.first = s.i - 1
	s.ws()
	if s.consume(']') {
		return nil
	}
	for {
		if err := s.trace(); err != nil {
			return err
		}
		s.ws()
		if s.consume(']') {
			return nil
		}
		if !s.consume(',') {
			return s.syntax("after a trace")
		}
		s.ws()
	}
}

// trace parses one trace onto the slab. A trace is rejected as soon as it
// overflows traceLen, before its surplus samples are converted.
func (s *jsonScanner) trace() error {
	if s.null() {
		return s.lengthError(0)
	}
	s.grow()
	if !s.consume('[') {
		return s.syntax("looking for a trace array")
	}
	start := len(s.slab)
	s.ws()
	if !s.consume(']') {
		for {
			if len(s.slab)-start == s.traceLen {
				return fmt.Errorf("trace %d has more than %d samples, template expects %d", s.n, s.traceLen, s.traceLen)
			}
			v, err := s.sample()
			if err != nil {
				return err
			}
			s.slab = append(s.slab, v)
			s.ws()
			if s.consume(']') {
				break
			}
			if !s.consume(',') {
				return s.syntax("after a sample")
			}
			s.ws()
		}
	}
	if got := len(s.slab) - start; got != s.traceLen {
		return s.lengthError(got)
	}
	s.n++
	return nil
}

func (s *jsonScanner) lengthError(got int) error {
	return fmt.Errorf("trace %d has %d samples, template expects %d", s.n, got, s.traceLen)
}

// grow makes room on the slab for the trace starting at the read offset.
// After the first trace it sizes the slab for the rest of the body at the
// mean text width of the traces so far, so a batch of uniformly formatted
// traces costs two allocations whatever its length. The doubling floor
// bounds the reallocations when the width varies; the estimate never
// exceeds the samples the remaining bytes could hold.
func (s *jsonScanner) grow() {
	if cap(s.slab)-len(s.slab) >= s.traceLen {
		return
	}
	want := s.n + 1
	if s.n > 0 {
		want += (len(s.b) - s.i) / ((s.i - s.first) / s.n)
	}
	slab := make([]float64, len(s.slab), max(want, 2*s.n)*s.traceLen)
	copy(slab, s.slab)
	s.slab = slab
}

// sample parses one sample: a JSON number, validated against the JSON
// number grammar and converted exactly as encoding/json converts it, or
// null, which encoding/json decodes into a float64 as 0.
func (s *jsonScanner) sample() (float64, error) {
	if s.null() {
		return 0, nil
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		s.i = i
		return 0, s.syntax("looking for a sample")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.i = j
			return 0, s.syntax("after a decimal point")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.i = j
			return 0, s.syntax("in an exponent")
		}
		i = j
	}
	num := b[s.i:i]
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		// The grammar is already checked, so this is a range error.
		return 0, fmt.Errorf("invalid JSON body: number %.32s at offset %d is out of float64 range", num, s.i)
	}
	s.i = i
	return v, nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// ws skips JSON whitespace.
func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *jsonScanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *jsonScanner) null() bool {
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += len("null")
		return true
	}
	return false
}

// key consumes the one accepted key, spelled exactly.
func (s *jsonScanner) key() bool {
	if bytes.HasPrefix(s.b[s.i:], []byte(tracesKey)) {
		s.i += len(tracesKey)
		return true
	}
	return false
}

func (s *jsonScanner) unknownKey() error {
	if bytes.HasPrefix([]byte(tracesKey), s.b[s.i:]) {
		return errJSONEnd // the body ends inside the key
	}
	if s.b[s.i] == '"' {
		return fmt.Errorf(`invalid JSON body: unknown field at offset %d: the only field is "traces", spelled exactly`, s.i)
	}
	return s.syntax("looking for a field name")
}

// end checks that only whitespace follows the top-level value.
func (s *jsonScanner) end() error {
	s.ws()
	if s.i < len(s.b) {
		return fmt.Errorf("invalid JSON body: trailing data at offset %d after the top-level value", s.i)
	}
	return nil
}

func (s *jsonScanner) syntax(context string) error {
	if s.i >= len(s.b) {
		return errJSONEnd
	}
	return fmt.Errorf("invalid JSON body: invalid character %q %s at offset %d", s.b[s.i], context, s.i)
}
