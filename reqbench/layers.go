package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// The traced run. The program itself carries no benchmark spans: every span
// here is recorded by this package around a public call into one layer, or
// around an HTTP request and the wrapped Server.Handler().ServeHTTP. Spans
// are kept in memory, written as JSONL to .bench_build/spans at the end, and
// the per-layer table is derived from them.

// span is one timed call. Key ties spans of one request (its sequence
// number) or one trace (its pool index) together; Parent is the enclosing
// span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    int    `json:"key"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, key int) int {
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: start})
	return len(t.spans)
}

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	return float64(s.End-s.Start) / 1e3
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, parent, key int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: int64(start), End: int64(end)})
	return len(t.spans)
}

// time runs f inside a span and returns its duration in microseconds.
func (t *tracer) time(name string, parent, key int, f func()) float64 {
	id := t.begin(name, parent, key)
	f()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inProcess is scdisd's serving stack built in this process with the
// daemon's default configuration, behind a wrapper that records a
// serve.handler span around Server.Handler().ServeHTTP for each request
// tagged with seqHeader.
type inProcess struct {
	reg  *serve.Registry
	srv  *serve.Server
	http *http.Server
	addr string
}

func startInProcess(tplDir string, tr *tracer) (*inProcess, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	obs.SetDefault(obs.NewRegistry())
	reg, err := serve.NewRegistry(tplDir, serve.RegistryConfig{
		Sparse: core.SparseAuto,
		Drift:  defaultDrift,
		Logger: quiet,
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(reg, serve.Config{
		MaxInFlight: 2, MaxQueue: 8, RetryAfter: time.Second,
		TraceSampleRate: 0.01, DebugRequests: 128, Logger: quiet,
	})
	h := srv.Handler()
	p := &inProcess{reg: reg, srv: srv}
	p.http = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		seq, err := strconv.Atoi(r.Header.Get(seqHeader))
		if err != nil {
			h.ServeHTTP(rw, r)
			return
		}
		tr.time("serve.handler", 0, seq, func() { h.ServeHTTP(rw, r) })
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	p.addr = l.Addr().String()
	go p.http.Serve(l)
	return p, nil
}

func (p *inProcess) close() {
	p.http.Close()
	p.reg.Close()
}

// defaultDrift is scdisd's default drift-monitor configuration.
var defaultDrift = obs.DriftConfig{Window: obs.DefaultDriftWindow, Warn: obs.DefaultDriftWarn, Critical: obs.DefaultDriftCritical}

// level is one hierarchy level rebuilt from the template file's state
// through the public features and ml entry points.
type level struct {
	pipe *features.Pipeline
	clf  ml.ScoredClassifier
}

type levels struct {
	group  level
	instr  []level // indexed by group label
	rd, rr level
}

// loadLevels rebuilds every trained level of a v4 template file.
func loadLevels(path string) (*levels, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Template()
	if err != nil {
		return nil, err
	}
	build := func(ls store.LevelState) (level, error) {
		if !ls.Present {
			return level{}, nil
		}
		pipe, err := features.PipelineFromState(ls.Pipe)
		if err != nil {
			return level{}, err
		}
		if ls.Sparse != nil {
			if err := pipe.InstallSparseTable(ls.Sparse); err != nil {
				return level{}, err
			}
		}
		clf, err := ml.RestoreClassifier(ls.Clf)
		if err != nil {
			return level{}, err
		}
		sc, ok := clf.(ml.ScoredClassifier)
		if !ok {
			return level{}, errors.New("classifier has no scored path")
		}
		return level{pipe, sc}, nil
	}
	lv := &levels{instr: make([]level, len(st.Instr))}
	if lv.group, err = build(st.Group); err != nil {
		return nil, err
	}
	for i := range st.Instr {
		if lv.instr[i], err = build(st.Instr[i]); err != nil {
			return nil, err
		}
	}
	if st.HaveRegs {
		if lv.rd, err = build(st.Rd); err != nil {
			return nil, err
		}
		if lv.rr, err = build(st.Rr); err != nil {
			return nil, err
		}
	}
	return lv, nil
}

// walk classifies one trace level by level, timing extraction and scoring
// per level under parent, and checks each label against the served
// decision. The served decision names the levels that ran; its group label
// picks the instruction level. It returns the sparse cell count per level.
func (lv *levels) walk(tr *tracer, parent, key int, trace []float64, want core.Decision) (map[string]int, error) {
	cells := map[string]int{}
	for _, wl := range want.Levels {
		var l level
		switch wl.Level {
		case "group":
			l = lv.group
		case "instr":
			if g := want.Levels[0].Label; g >= 0 && g < len(lv.instr) {
				l = lv.instr[g]
			}
		case "rd":
			l = lv.rd
		case "rr":
			l = lv.rr
		}
		if l.pipe == nil {
			return nil, fmt.Errorf("served level %s has no trained template", wl.Level)
		}
		var (
			f   []float64
			sp  ml.ScoredPrediction
			err error
		)
		tr.time("features.extract."+wl.Level, parent, key, func() { f, err = l.pipe.ExtractSparse(trace) })
		if err != nil {
			return nil, err
		}
		tr.time("ml.classify."+wl.Level, parent, key, func() { sp, err = l.clf.PredictScored(f) })
		if err != nil {
			return nil, err
		}
		if sp.Label != wl.Label {
			return nil, fmt.Errorf("level %s: walk label %d, served label %d", wl.Level, sp.Label, wl.Label)
		}
		if cells[wl.Level], err = l.pipe.SparseCells(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// runTraced is the traced run: the per-layer metrics.
func runTraced(w *workload, fx *fixture, tplDir string, seed uint64, dur time.Duration) (*result, error) {
	tr := &tracer{t0: time.Now()}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	p, err := startInProcess(tplDir, tr)
	if err != nil {
		return nil, err
	}
	defer p.close()
	client := newClient(clients)
	defer client.CloseIdleConnections()
	base := "http://" + p.addr
	probe := &loader{client: client, base: base, jobs: fx.probes}
	for t := range fx.probes { // materialize every template, as set-up does
		if err := probe.one(t); err != nil {
			return nil, fmt.Errorf("warming %s: %w", w.names[t], err)
		}
	}

	// Loopback: the workload's load untraced, then the same load traced.
	l := &loader{client: client, base: base, jobs: fx.jobs, epoch: tr.t0}
	phase := func() ([]sample, error) {
		rw := &rewriter{w: w, fx: fx, dir: tplDir, client: client, base: base}
		samples := drive(w, l, rw, dur*3/10)
		res.Attempted += len(samples) + rw.done
		res.Failed += rw.failed
		for i := range samples {
			if !samples[i].ok() {
				res.Failed++
			}
		}
		if err := firstErr(samples); err != nil {
			return nil, fmt.Errorf("loopback load: %w", err)
		}
		if rw.failed > 0 {
			return nil, fmt.Errorf("loopback load: %d template rewrites failed", rw.failed)
		}
		return samples, nil
	}
	plain, err := phase()
	if err != nil {
		return nil, err
	}
	opens0 := obs.Default().Counter("store.opens").Value()
	l.traced = true
	traced, err := phase()
	if err != nil {
		return nil, err
	}
	cold := obs.Default().Counter("store.opens").Value() - opens0
	// A client can read the last response byte before the wrapper closes
	// the handler span; Shutdown returns once every handler has returned.
	// The rest of the run calls the handler directly.
	if err := p.http.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	// Client-side spans, with each handler span re-parented under its
	// request.
	handlerSpan := map[int]int{}
	for i := range tr.spans {
		if tr.spans[i].Name == "serve.handler" {
			handlerSpan[tr.spans[i].Key] = i
		}
	}
	var connMs, wire, transport, hdl, reqBytes, respBytes []float64
	for i := range traced {
		s := &traced[i]
		root := tr.add("client.request", 0, s.seq, s.sent, s.done)
		tr.add("load.conn_wait", root, s.seq, s.sent, s.conn)
		hi, ok := handlerSpan[s.seq]
		if !ok {
			return nil, fmt.Errorf("request %d has no handler span", s.seq)
		}
		tr.spans[hi].Parent = root
		h := float64(tr.spans[hi].End-tr.spans[hi].Start) / 1e3
		connMs = append(connMs, ms(s.conn-s.sent))
		wire = append(wire, us(s.done-s.conn))
		transport = append(transport, us(s.done-s.conn)-h)
		hdl = append(hdl, h)
		reqBytes = append(reqBytes, float64(len(fx.jobs[s.job].body)))
		respBytes = append(respBytes, float64(s.respBytes))
	}
	put("load.conn_wait_ms_p99", quantile(connMs, 0.99), "ms")
	put("net.transport_us_per_req", median(transport), "us")
	put("serve.handler_us_per_req", median(hdl), "us")
	put("serve.req_bytes_per_trace", mean(reqBytes)/float64(w.batch), "B")
	put("serve.resp_bytes_per_trace", mean(respBytes)/float64(w.batch), "B")
	put("serve.cold_request_ratio", float64(cold)/float64(len(traced)), "ratio")
	put("bench.trace_overhead_ratio", medianLatency(traced)/medianLatency(plain), "ratio")

	// In process: the public calls into each layer, on the workload's traces.
	if err := storeLayer(w, fx, tr, put); err != nil {
		return nil, err
	}
	if err := registryLayer(w, fx, p, tplDir, tr, put); err != nil {
		return nil, err
	}
	path := filepath.Join(fx.dir, w.files[0])
	tpl, err := core.OpenTemplate(path)
	if err != nil {
		return nil, err
	}
	defer tpl.Close()
	d, err := tpl.Disassembler()
	if err != nil {
		return nil, err
	}
	mon, err := d.NewDriftMonitor(defaultDrift)
	if err != nil {
		return nil, err
	}
	d.SetObserver(&core.InferenceObserver{Drift: mon}) // as the registry wires it
	if err := coreLayers(w, fx, d, path, tr, put); err != nil {
		logf("level walk: %v", err)
		res.Correct = false
		return res, nil
	}
	isolated, dec, err := handlerLayer(w, fx, d, p, tr, put)
	if err != nil {
		return nil, err
	}
	// Handler overhead: the handler alone, in process, minus the decode
	// alone, on the same batches. Under load the handler also waits for
	// admission and shares the CPUs with concurrent requests: serve.queue.
	put("serve.overhead_us_per_req", median(isolated)-median(dec), "us")
	put("serve.queue_us_per_req", median(hdl)-median(isolated), "us")

	// Layer sum: transport + queue + overhead + decode against the
	// request's time on the wire.
	sum := m["net.transport_us_per_req"].Value + m["serve.queue_us_per_req"].Value +
		m["serve.overhead_us_per_req"].Value + median(dec)
	put("bench.request_sum_gap", math.Abs(sum-median(wire))/median(wire), "ratio")
	for _, g := range []string{"bench.request_sum_gap", "bench.classify_sum_gap"} {
		if v := m[g].Value; v > 0.1 {
			logf("layer-sum check: %s = %.3f exceeds 0.1: the reported layers miss part of the time", g, v)
		}
	}
	return res, tr.write(filepath.Join(buildDir, "spans", fmt.Sprintf("%s-s%d.jsonl", w.name, seed)))
}

// storeLayer times opening and materializing the workload's template files.
func storeLayer(w *workload, fx *fixture, tr *tracer, put func(string, float64, string)) error {
	var open, mat []float64
	var resident int64
	for t, f := range w.files {
		path := filepath.Join(fx.dir, f)
		for k := 0; k < 5; k++ {
			var (
				tpl *core.Template
				err error
			)
			open = append(open, tr.time("store.open", 0, t, func() { tpl, err = core.OpenTemplate(path) }))
			if err != nil {
				return err
			}
			mat = append(mat, tr.time("store.materialize", 0, t, func() { _, err = tpl.Disassembler() }))
			if k == 0 {
				resident += tpl.ResidentBytes()
			}
			tpl.Close()
			if err != nil {
				return err
			}
		}
	}
	put("store.open_ms", median(open)/1e3, "ms")
	put("store.materialize_ms", median(mat)/1e3, "ms")
	put("store.resident_mb", float64(resident)/(1<<20), "MiB")
	return nil
}

// registryLayer times Registry.Get on warm templates and Registry.Reload
// after a template file was replaced.
func registryLayer(w *workload, fx *fixture, p *inProcess, tplDir string, tr *tracer, put func(string, float64, string)) error {
	const gets = 1000
	var get, reload []float64
	for k := 0; k < 20; k++ {
		var err error
		get = append(get, tr.time("serve.registry_get", 0, k, func() {
			for i := 0; i < gets && err == nil; i++ {
				_, err = p.reg.Get(w.names[i%len(w.names)])
			}
		})/gets)
		if err != nil {
			return err
		}
	}
	rw := &rewriter{w: w, fx: fx, dir: tplDir}
	for k := 0; k < 5; k++ {
		if err := rw.replace(); err != nil {
			return err
		}
		var err error
		reload = append(reload, tr.time("serve.reload", 0, k, func() { err = p.reg.Reload() }))
		if err != nil {
			return err
		}
	}
	put("serve.registry_get_us", median(get), "us")
	put("serve.reload_ms", median(reload)/1e3, "ms")
	return nil
}

// coreLayers times the decode entry points of d and the per-level walk
// over the levels of the template file at path.
func coreLayers(w *workload, fx *fixture, d *core.Disassembler, path string, tr *tracer, put func(string, float64, string)) error {
	walkMon, err := d.NewDriftMonitor(defaultDrift)
	if err != nil {
		return err
	}
	lv, err := loadLevels(path)
	if err != nil {
		return err
	}
	ctx := context.Background()
	batchOf := func(b int) [][]float64 { return fx.stream.traces[b*w.batch : (b+1)*w.batch] }

	// DisassembleScoredCtx on every pool batch, three rounds.
	perBatch := map[int][]float64{}
	levelsN := 0
	for round := 0; round < 3; round++ {
		for b := 0; b < w.pool; b++ {
			var decs []core.Decision
			perBatch[b] = append(perBatch[b], tr.time("core.decode", 0, b, func() { decs, err = d.DisassembleScoredCtx(ctx, batchOf(b)) }))
			if err != nil {
				return err
			}
			for _, dec := range decs {
				levelsN += len(dec.Levels)
			}
		}
	}
	var perTrace []float64
	for _, v := range perBatch {
		perTrace = append(perTrace, median(v)/float64(w.batch))
	}
	put("core.decode_us_per_trace", median(perTrace), "us")
	put("core.levels_per_trace", float64(levelsN)/float64(3*w.pool*w.batch), "count")

	// Per trace, on up to 256 pool traces: ClassifyScored, a 1-trace
	// DisassembleScoredCtx, and the level walk plus drift feed.
	n := min(256, len(fx.stream.traces))
	parts := []string{"group", "instr", "rd", "rr"}
	ex, sc, cells := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var classify, fanout, drift, self []float64
	for i := 0; i < n; i++ {
		trace := fx.stream.traces[i]
		want := fx.jobs[i/w.batch].want[i%w.batch]
		// The two calls alternate order, so neither always runs on the
		// caches the other warmed.
		var (
			dec    core.Decision
			c, one float64
		)
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				c = tr.time("core.classify", 0, i, func() { dec, err = d.ClassifyScored(trace) })
			} else {
				one = tr.time("core.decode1", 0, i, func() { _, err = d.DisassembleScoredCtx(ctx, [][]float64{trace}) })
			}
			if err != nil {
				return err
			}
		}
		if dec.Decoded.String() != want.Decoded.String() {
			return fmt.Errorf("trace %d: ClassifyScored %q, served %q", i, dec.Decoded.String(), want.Decoded.String())
		}
		root := tr.begin("bench.walk", 0, i)
		nc, err := lv.walk(tr, root, i, trace, want)
		if err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
		dr := tr.time("obs.drift", root, i, func() {
			var dv []float64
			if dv, err = lv.group.pipe.DriftVector(trace); err == nil {
				walkMon.Observe(dv)
			}
		})
		tr.end(root)
		if err != nil {
			return err
		}
		rest := c
		for _, s := range tr.spans[root:] { // the walk's child spans, drift included
			rest -= float64(s.End-s.Start) / 1e3
			name := s.Name[strings.LastIndexByte(s.Name, '.')+1:]
			switch {
			case strings.HasPrefix(s.Name, "features.extract."):
				ex[name] = append(ex[name], float64(s.End-s.Start)/1e3)
			case strings.HasPrefix(s.Name, "ml.classify."):
				sc[name] = append(sc[name], float64(s.End-s.Start)/1e3)
			}
		}
		for lvl, k := range nc {
			cells[lvl] = append(cells[lvl], float64(k))
		}
		classify = append(classify, c)
		fanout = append(fanout, one-c)
		drift = append(drift, dr)
		self = append(self, rest)
	}
	put("core.classify_us_per_trace", median(classify), "us")
	put("core.self_us_per_trace", median(self), "us")
	put("obs.drift_us_per_trace", median(drift), "us")
	put("parallel.fanout_us_per_req", median(fanout), "us")

	// Classify sum: the per-level extract and score spans and the drift
	// feed account for the classify call up to its self time (validation,
	// decision assembly, dispatch). The gap is that remainder's share.
	for _, name := range parts {
		// A level no sampled trace reached reports 0.
		put("features.extract_us."+name, median0(ex[name]), "us")
		put("ml.classify_us."+name, median0(sc[name]), "us")
		put("dsp.cells."+name, median0(cells[name]), "count")
	}
	put("bench.classify_sum_gap", math.Abs(median(self))/median(classify), "ratio")

	// Batch speed-up: a serial ClassifyScored loop over the same n traces
	// against one DisassembleScoredCtx of them, alternated three times.
	var loop, batch []float64
	for k := 0; k < 3; k++ {
		loop = append(loop, tr.time("core.classify_loop", 0, k, func() {
			for _, trace := range fx.stream.traces[:n] {
				if _, err = d.ClassifyScored(trace); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return err
		}
		batch = append(batch, tr.time("core.decode_batch", 0, k, func() { _, err = d.DisassembleScoredCtx(ctx, fx.stream.traces[:n]) }))
		if err != nil {
			return err
		}
	}
	put("parallel.batch_speedup", median(loop)/median(batch), "ratio")
	return nil
}

// handlerLayer calls the handler in process, alone, on the first pool
// batches encoded as JSON and as the binary frame, interleaved with d's
// decode of the same batch. It reports the JSON premium per trace and
// returns, per batch, the median handler time in the workload's own
// encoding and the median decode time.
func handlerLayer(w *workload, fx *fixture, d *core.Disassembler, p *inProcess, tr *tracer, put func(string, float64, string)) (own, dec []float64, err error) {
	h := p.srv.Handler()
	reps := 15
	if w.batch > 16 {
		reps = 3
	}
	call := func(name, ctype string, b int, body []byte) (float64, error) {
		req := httptest.NewRequest(http.MethodPost, fx.jobs[b].path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		t := tr.time("serve.handler."+name, 0, b, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process %s request: status %d: %s", name, rec.Code, rec.Body.String())
		}
		return t, checkResponse(rec.Body.Bytes(), fx.jobs[b].want)
	}
	var premium []float64
	for b := 0; b < min(w.pool, 8); b++ {
		traces := fx.stream.traces[b*w.batch : (b+1)*w.batch]
		jb, err := jsonBody(traces)
		if err != nil {
			return nil, nil, err
		}
		bb := binaryBody(traces)
		var js, bin, de []float64
		for rep := 0; rep < reps; rep++ {
			de = append(de, tr.time("core.decode", 0, b, func() { _, err = d.DisassembleScoredCtx(context.Background(), traces) }))
			if err != nil {
				return nil, nil, err
			}
			t, err := call("json", "application/json", b, jb)
			if err != nil {
				return nil, nil, err
			}
			js = append(js, t)
			if t, err = call("binary", "application/octet-stream", b, bb); err != nil {
				return nil, nil, err
			}
			bin = append(bin, t)
		}
		premium = append(premium, (median(js)-median(bin))/float64(w.batch))
		if w.json {
			own = append(own, median(js))
		} else {
			own = append(own, median(bin))
		}
		dec = append(dec, median(de))
	}
	put("serve.json_premium_us_per_trace", median(premium), "us")
	return own, dec, nil
}

func medianLatency(samples []sample) float64 {
	v := make([]float64, len(samples))
	for i := range samples {
		v[i] = ms(samples[i].latency())
	}
	return median(v)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median0 is median with 0 for an empty sample.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
