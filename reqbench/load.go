package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// job is one prepared decode request: the body is encoded before any
// timing starts, and want is the in-process reference decode the response
// must equal.
type job struct {
	path  string // URL path, /v1/disassemble/<template>
	ctype string
	body  []byte
	want  []core.Decision
	truth []bool // per trace: the reference label matches the ground truth
}

func binaryBody(traces [][]float64) []byte {
	n := len(traces[0])
	b := make([]byte, 8+8*n*len(traces))
	binary.LittleEndian.PutUint32(b[0:], uint32(len(traces)))
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	off := 8
	for _, tr := range traces {
		for _, v := range tr {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
			off += 8
		}
	}
	return b
}

func jsonBody(traces [][]float64) ([]byte, error) {
	return json.Marshal(struct {
		Traces [][]float64 `json:"traces"`
	}{traces})
}

// sample is the fate of one request. Times are offsets from the loader's
// epoch: sent when the client issued it, conn when it got a connection
// (traced runs only: the transport's GotConn), done when the last response
// byte arrived.
type sample struct {
	sent, conn, done time.Duration
	seq              int // request number within the phase
	job              int
	err              error // transport error, non-200 or reference mismatch
	respBytes        int
	body             []byte // response body, until verify checks it
}

func (s *sample) ok() bool { return s.err == nil }

func (s *sample) latency() time.Duration { return s.done - s.sent }

// seqHeader carries a traced request's number to the handler wrapper, which
// files the handler span under it.
const seqHeader = "X-Bench-Seq"

// loader sends prepared jobs to one server.
type loader struct {
	client *http.Client
	base   string // http://host:port
	jobs   []job
	epoch  time.Time // sample times are offsets from it; zero: each phase's start
	traced bool      // record connection hand-off times with httptrace and tag requests with seqHeader
}

// do sends job s.job and keeps the response body for verify.
func (l *loader) do(s *sample, start time.Time) {
	j := &l.jobs[s.job]
	req, err := http.NewRequest(http.MethodPost, l.base+j.path, bytes.NewReader(j.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", j.ctype)
	if l.traced {
		req.Header.Set(seqHeader, strconv.Itoa(s.seq))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { s.conn = time.Since(start) },
		}))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		s.done = time.Since(start)
		s.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.respBytes = len(body)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		s.body = body
	}
}

// one sends job j alone and checks its response.
func (l *loader) one(j int) error {
	s := []sample{{job: j}}
	l.do(&s[0], time.Now())
	l.verify(s)
	return s[0].err
}

// verify checks every response of a finished phase against its reference.
// Checking after the phase keeps the JSON decoding of responses off the
// CPUs the daemon shares with this process while load runs.
func (l *loader) verify(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.body != nil {
			s.err = checkResponse(s.body, l.jobs[s.job].want)
			s.body = nil
		}
	}
}

// checkResponse compares a served listing with the reference decode:
// text, chain confidence and every per-level outcome, bit for bit.
func checkResponse(body []byte, want []core.Decision) error {
	var got serve.DisassembleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if got.Count != len(want) || len(got.Decoded) != len(want) {
		return fmt.Errorf("mismatch: served %d decodes, reference %d", len(got.Decoded), len(want))
	}
	for i, g := range got.Decoded {
		w := want[i]
		if g.Text != w.Decoded.String() || g.Confidence != w.Confidence || len(g.Levels) != len(w.Levels) {
			return fmt.Errorf("mismatch at trace %d: served %q (%g), reference %q (%g)",
				i, g.Text, g.Confidence, w.Decoded.String(), w.Confidence)
		}
		for k := range g.Levels {
			if g.Levels[k] != w.Levels[k] {
				return fmt.Errorf("mismatch at trace %d level %s: served %+v, reference %+v",
					i, w.Levels[k].Level, g.Levels[k], w.Levels[k])
			}
		}
	}
	return nil
}

// closedLoop runs clients that each send their next request as soon as the
// previous one completes, until dur has passed. Request i (counted across
// clients in send order) carries job pick(i); before(i) runs just before
// it is sent.
func (l *loader) closedLoop(clients int, dur time.Duration, pick func(int) int, before func(int)) []sample {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	start := l.epoch
	if start.IsZero() {
		start = begin
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(begin) < dur {
				i := int(next.Add(1) - 1)
				before(i)
				s := sample{seq: i, job: pick(i), sent: time.Since(start)}
				l.do(&s, start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	l.verify(out)
	return out
}

// firstErr returns the first failure of a phase, for the run report.
func firstErr(samples []sample) error {
	for i := range samples {
		if samples[i].err != nil {
			return fmt.Errorf("request %d (sent at %s): %w", i, samples[i].sent, samples[i].err)
		}
	}
	return nil
}
