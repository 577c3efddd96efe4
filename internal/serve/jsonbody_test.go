package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// oracleRequest is the request body as encoding/json sees it: the test
// oracle for the JSON scanner, and the encoder of test bodies.
type oracleRequest struct {
	Traces [][]float64 `json:"traces"`
}

// oracleDecode is encoding/json's reading of a body: one Decode with
// DisallowUnknownFields, which ignores whatever follows the first value.
func oracleDecode(body []byte) ([][]float64, error) {
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req.Traces, err
}

// oracleTraces is the encoding/json request path: decode, then the same
// batch checks parseJSONTraces makes.
func oracleTraces(body []byte, traceLen int) ([][]float64, error) {
	traces, err := oracleDecode(body)
	if err != nil {
		return nil, err
	}
	if len(traces) == 0 {
		return nil, errEmptyBatch
	}
	for i, tr := range traces {
		if len(tr) != traceLen {
			return nil, fmt.Errorf("trace %d has %d samples, template expects %d", i, len(tr), traceLen)
		}
	}
	return traces, nil
}

// tightened reports which of the scanner's three documented tightenings a
// body falls under, judged by encoding/json itself: non-whitespace after
// the first value, a top-level object with more than one member (the only
// field encoding/json would accept twice is "traces"), or a member key not
// spelled exactly "traces" in the raw bytes.
func tightened(body []byte) (trailing, duplicate, spelling bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var raw json.RawMessage
	if dec.Decode(&raw) != nil {
		return false, false, false
	}
	trailing = len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
	if raw[0] != '{' {
		return trailing, false, false
	}
	kd := json.NewDecoder(bytes.NewReader(raw))
	kd.Token() // '{'
	members := 0
	for kd.More() {
		before := kd.InputOffset()
		if _, err := kd.Token(); err != nil {
			break
		}
		key := bytes.TrimLeft(raw[before:kd.InputOffset()], " \t\r\n,")
		spelling = spelling || string(key) != tracesKey
		members++
		var v json.RawMessage
		if kd.Decode(&v) != nil {
			break
		}
	}
	return trailing, members > 1, spelling
}

// checkAgainstOracle asserts the scanner's contract on one body: what it
// accepts encoding/json accepts with bit-identical samples, what
// encoding/json rejects it rejects, and what only encoding/json accepts
// falls under a documented tightening. It returns the scanner's error.
func checkAgainstOracle(t *testing.T, body []byte, traceLen int) error {
	t.Helper()
	got, err := parseJSONTraces(body, traceLen)
	want, werr := oracleTraces(body, traceLen)
	switch {
	case err == nil && werr != nil:
		t.Fatalf("scanner accepts %q, encoding/json rejects it: %v", body, werr)
	case err == nil:
		if len(got) != len(want) {
			t.Fatalf("%q: %d traces, encoding/json %d", body, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%q: trace %d has %d samples, encoding/json %d", body, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%q: sample [%d][%d] = %v, encoding/json %v", body, i, j, got[i][j], want[i][j])
				}
			}
		}
	case werr == nil:
		if trailing, duplicate, spelling := tightened(body); !trailing && !duplicate && !spelling {
			t.Fatalf("scanner rejects %q (%v), encoding/json accepts it, and no documented tightening applies", body, err)
		}
	}
	return err
}

// fuzzTraceLen picks the template length for a fuzz input: n when set,
// else the first trace's length as encoding/json reads it, so most inputs
// get past the length check and exercise the sample comparison.
func fuzzTraceLen(body []byte, n uint16) int {
	if n > 0 {
		return int(n)
	}
	if traces, _ := oracleDecode(body); len(traces) > 0 && len(traces[0]) > 0 {
		return len(traces[0])
	}
	return 1
}

// jsonFuzzSeeds is FuzzJSONTraces' committed corpus: a body and the
// template length (0 takes the first trace's) per named seed.
var jsonFuzzSeeds = map[string]struct {
	body string
	n    uint16
}{
	"exponents":           {`{"traces":[[1e2,2.5E-1,-3.75e+0,0.5e0,1E+2]]}`, 0},
	"neg_zero":            {`{"traces":[[-0,-0.0,0,0.0]]}`, 0},
	"overflow":            {`{"traces":[[1,1e400]]}`, 2},
	"underflow_subnormal": {`{"traces":[[1e-400,4.9e-324,1.7976931348623157e308]]}`, 0},
	"leading_zero":        {`{"traces":[[01]]}`, 1},
	"plus_sign":           {`{"traces":[[+1]]}`, 1},
	"bare_fraction":       {`{"traces":[[.5]]}`, 1},
	"bare_point":          {`{"traces":[[1.]]}`, 1},
	"nan":                 {`{"traces":[[NaN]]}`, 1},
	"infinity":            {`{"traces":[[Infinity,-Infinity]]}`, 2},
	"string_element":      {`{"traces":[["1.5"]]}`, 1},
	"nested_null":         {`{"traces":[[1,null,3],null]}`, 3},
	"null_body":           {`null`, 1},
	"null_traces":         {`{"traces":null}`, 1},
	"bom":                 {"\ufeff" + `{"traces":[[1]]}`, 1},
	"case_key":            {`{"Traces":[[1,2]]}`, 0},
	"escaped_key":         {`{"trac\u0065s":[[1,2]]}`, 0},
	"folded_key":          {"{\"trace\u017f\":[[1]]}", 0},
	"duplicate_key":       {`{"traces":[[5,6]],"traces":[[null,7]]}`, 0},
	"unknown_key":         {`{"traces":[[1]],"extra":1}`, 0},
	"trailing_data":       {`{"traces":[[1,2]]} x`, 0},
	"trailing_object":     {`{"traces":[[1]]}{"traces":[[2]]}`, 0},
	"trailing_space":      {" {\"traces\":[[1,2]]} \r\n\t", 0},
	"truncated":           {`{"traces":[[0.0123,0.0456],[0.07`, 2},
	"whitespace":          {` { "traces" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } `, 0},
	"overlong_trace":      {`{"traces":[[1,2],[1,2,3]]}`, 2},
	"wrong_types":         {`{"traces":[[[1]],[true],{}]}`, 1},
}

// TestJSONFuzzCorpusCommitted regenerates FuzzJSONTraces' committed seed
// corpus under testdata/fuzz when REGEN_FUZZ_CORPUS is set, and otherwise
// asserts it is present, so the corpus stays derivable from code.
func TestJSONFuzzCorpusCommitted(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
		for name, seed := range jsonFuzzSeeds {
			testkit.WriteCorpus(t, "FuzzJSONTraces", name, []byte(seed.body), seed.n)
		}
		return
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzJSONTraces"))
	if err != nil || len(ents) == 0 {
		t.Errorf("no committed seed corpus for FuzzJSONTraces (REGEN_FUZZ_CORPUS=1 to create): %v", err)
	}
}

// FuzzJSONTraces is the differential fuzz target: the scanner against
// encoding/json on arbitrary bodies, from the jsonFuzzSeeds corpus.
func FuzzJSONTraces(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, n uint16) {
		checkAgainstOracle(t, body, fuzzTraceLen(body, n))
	})
}

// TestParseJSONTraces pins the scanner's verdict and error on the cases
// its contract names, each also checked against encoding/json.
func TestParseJSONTraces(t *testing.T) {
	for _, tc := range []struct {
		body     string
		traceLen int
		wantErr  string // "" accepts
	}{
		{`{"traces":[[1,2],[3,4]]}`, 2, ""},
		{" \t\r\n{ \"traces\" : [ [ 1 , 2 ] ] } \n", 2, ""},
		{`{"traces":[[1e2,2.5E-1,-3.75e+0,0.5e0]]}`, 4, ""},
		{`{"traces":[[-0,-0.0,0]]}`, 3, ""},
		{`{"traces":[[1e-400,4.9e-324,1.7976931348623157e308]]}`, 3, ""},
		{`{"traces":[[1,null,3]]}`, 3, ""},
		{`{"traces":[[1e400]]}`, 1, "out of float64 range"},
		{`{"traces":[[01]]}`, 1, "invalid JSON body"},
		{`{"traces":[[+1]]}`, 1, "invalid JSON body"},
		{`{"traces":[[.5]]}`, 1, "invalid JSON body"},
		{`{"traces":[[1.]]}`, 1, "invalid JSON body"},
		{`{"traces":[[1e]]}`, 1, "invalid JSON body"},
		{`{"traces":[[NaN]]}`, 1, "invalid JSON body"},
		{`{"traces":[[Infinity]]}`, 1, "invalid JSON body"},
		{`{"traces":[["1.5"]]}`, 1, "invalid JSON body"},
		{`{"traces":[[1],]}`, 1, "invalid JSON body"},
		{`{"traces":[[1,2]]`, 2, "unexpected end of input"},
		{`{"tra`, 2, "unexpected end of input"},
		{`{"traces":[[1,2]],"tra`, 2, "unexpected end of input"},
		{"\ufeff" + `{"traces":[[1]]}`, 1, "invalid JSON body"},
		{`{"traces":[[1,2],null]}`, 2, "trace 1 has 0 samples, template expects 2"},
		{`{"traces":[[1,2,3]]}`, 2, "trace 0 has more than 2 samples, template expects 2"},
		{`{"traces":[[1]]}`, 2, "trace 0 has 1 samples, template expects 2"},
		{`{"traces":[[1]],"extra":1}`, 1, "unknown field"},
		{`{"extra":1}`, 1, "unknown field"},
		{``, 1, "unexpected end of input"},
		{`{}`, 1, "empty batch"},
		{`null`, 1, "empty batch"},
		{`{"traces":null}`, 1, "empty batch"},
		{`{"traces":[]}`, 1, "empty batch"},
		// The three tightenings: encoding/json accepts each of these.
		{`{"Traces":[[1]]}`, 1, "unknown field"},
		{`{"trac\u0065s":[[1]]}`, 1, "unknown field"},
		{`{"traces":[[5,6]],"traces":[[null,7]]}`, 2, `duplicate field "traces"`},
		{`{"traces":[[1]]} x`, 1, "trailing data"},
		{`{"traces":[[1]]}{}`, 1, "trailing data"},
	} {
		err := checkAgainstOracle(t, []byte(tc.body), tc.traceLen)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.body, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.body, err, tc.wantErr)
		}
	}
}

// TestServeTruncatedBodies is the truncated-body fault battery: every
// proper prefix of a valid JSON body and of a valid binary frame is a 400
// with a structured error, never a 200, a 500 or a panic, and releases its
// admission slot: with one slot and no queue, a leaked slot would shed the
// full requests that follow with 429.
func TestServeTruncatedBodies(t *testing.T) {
	reg, _ := newTestRegistry(t, RegistryConfig{})
	h := NewServer(reg, Config{MaxInFlight: 1, MaxQueue: -1}).Handler()
	post := func(ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	traces := fx.traces[:1]
	jb, err := json.Marshal(oracleRequest{Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ctype, want string
		body        []byte
	}{
		{"application/json", "invalid JSON body: unexpected end of input", jb},
		{"application/octet-stream", "binary body: ", binaryFrame(traces)},
	} {
		for n := range c.body {
			rec := post(c.ctype, c.body[:n])
			var ae apiError
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &ae) != nil || !strings.Contains(ae.Error, c.want) {
				t.Fatalf("%s prefix of %d/%d bytes: status %d, body %s; want 400 with a structured %q error",
					c.ctype, n, len(c.body), rec.Code, rec.Body.Bytes(), c.want)
			}
		}
		if rec := post(c.ctype, c.body); rec.Code != http.StatusOK {
			t.Fatalf("%s full body after its prefixes: status %d: %s", c.ctype, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestReadTracesBodyLimit pins the JSON body bound: a declared
// Content-Length over MaxBodyBytes is refused before anything is read, and
// a body of undeclared length is cut off at the limit.
func TestReadTracesBodyLimit(t *testing.T) {
	body := []byte(`{"traces":[[1,2]]}`)
	for _, c := range []struct {
		contentLength int64
		want          string
	}{
		{int64(len(body)), "exceeds the 8-byte body limit"},
		{-1, "request body too large"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", bytes.NewReader(body))
		req.ContentLength = c.contentLength
		_, err := readTraces(req, 8, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Content-Length %d: error %v, want one containing %q", c.contentLength, err, c.want)
		}
	}
}

// binaryFrame encodes traces as the packed little-endian request frame.
func binaryFrame(traces [][]float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(traces)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(traces[0])))
	for _, tr := range traces {
		for _, v := range tr {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// ingestTraceLen is the sample count of a reqbench register-template
// trace; ingest benchmarks use batches of such traces.
const ingestTraceLen = 315

// ingestBatch is a deterministic batch of n traces whose samples print
// like real ones (about 19 characters of JSON each).
func ingestBatch(n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	traces := make([][]float64, n)
	for i := range traces {
		traces[i] = make([]float64, ingestTraceLen)
		for j := range traces[i] {
			traces[i][j] = 0.05 + 0.01*rng.NormFloat64()
		}
	}
	return traces
}

func ingestJSON(n int) []byte {
	b, err := json.Marshal(oracleRequest{Traces: ingestBatch(n)})
	if err != nil {
		panic(err)
	}
	return b
}

// benchReadTraces times readTraces on body, reusing one request so only
// the ingest itself is measured.
func benchReadTraces(b *testing.B, ctype string, body []byte, traces int) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/disassemble/demo", nil)
	req.Header.Set("Content-Type", ctype)
	req.ContentLength = int64(len(body))
	req.Body = io.NopCloser(rd)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if _, err := readTraces(req, 256<<20, ingestTraceLen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(traces), "ns/trace")
}

// benchOracleIngest times the encoding/json request path on the same body.
func benchOracleIngest(b *testing.B, body []byte, traces int) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := oracleTraces(body, ingestTraceLen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(traces), "ns/trace")
}

// BenchmarkReadTraces times request ingest of a 16-trace batch of
// 315-sample traces (about 99 KB of JSON): the JSON scanner, the binary
// frame, and encoding/json as the reference the scanner replaced.
func BenchmarkReadTraces(b *testing.B) {
	const traces = 16
	jb := ingestJSON(traces)
	b.Run("json", func(b *testing.B) { benchReadTraces(b, "application/json", jb, traces) })
	bb := binaryFrame(ingestBatch(traces))
	b.Run("binary", func(b *testing.B) { benchReadTraces(b, "application/octet-stream", bb, traces) })
	b.Run("encoding-json", func(b *testing.B) { benchOracleIngest(b, jb, traces) })
}

// TestJSONIngestBudget is the ingest bench-compare gate: on a 16x315 body
// the JSON scanner must take at most half of encoding/json's time, and its
// allocations per body must not grow with the trace count (at most 8 for 16
// and for 256 traces). The time ratio pairs the two paths within each
// round and takes the median, so a load spike skews one round, not the
// verdict. Env-gated like the other timing gates; `make bench-compare`
// opts in.
func TestJSONIngestBudget(t *testing.T) {
	if os.Getenv("BENCH_COMPARE") == "" {
		t.Skip("set BENCH_COMPARE=1 (or run `make bench-compare`) to enable the ingest gate")
	}
	const traces, rounds, maxRatio, maxAllocs = 16, 5, 0.5, 8
	jb := ingestJSON(traces)
	ratios := make([]float64, rounds)
	var ours, ref testing.BenchmarkResult
	for i := range ratios {
		ours = testing.Benchmark(func(b *testing.B) { benchReadTraces(b, "application/json", jb, traces) })
		ref = testing.Benchmark(func(b *testing.B) { benchOracleIngest(b, jb, traces) })
		ratios[i] = float64(ours.NsPerOp()) / float64(ref.NsPerOp())
	}
	sort.Float64s(ratios)
	ratio := ratios[rounds/2]
	fmt.Printf("bench-compare: JSON ingest (%dx%d) scanner %d ns/op %d allocs, encoding/json %d ns/op %d allocs, median ratio %.2f (rounds %.2f..%.2f, budget %.2f)\n",
		traces, ingestTraceLen, ours.NsPerOp(), ours.AllocsPerOp(), ref.NsPerOp(), ref.AllocsPerOp(),
		ratio, ratios[0], ratios[rounds-1], maxRatio)
	if ratio > maxRatio {
		t.Errorf("JSON ingest takes %.2fx encoding/json's time; budget is %.2fx", ratio, maxRatio)
	}
	for _, n := range []int{traces, 256} {
		body := ingestJSON(n)
		r := testing.Benchmark(func(b *testing.B) { benchReadTraces(b, "application/json", body, n) })
		fmt.Printf("bench-compare: JSON ingest (%dx%d) %d allocs/op (budget %d)\n", n, ingestTraceLen, r.AllocsPerOp(), maxAllocs)
		if r.AllocsPerOp() > maxAllocs {
			t.Errorf("JSON ingest of %d traces makes %d allocations; budget is %d per body", n, r.AllocsPerOp(), maxAllocs)
		}
	}
}
