// Command reqbench is the request-path benchmark of the scdisd decode
// service. It trains seeded fixture templates (cached by seed and code
// hash), starts scdisd from this checkout on loopback, drives it from this
// one process, checks every response against an in-process reference
// decode, and prints the workload's metrics, ending with one JSON line.
//
//	bash reqbench/run.sh --workload batch-256 --seed 1 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics against the scdisd child.
// --trace 1 is the separate traced run: it serves the same templates in
// process, times the public calls into each layer from this package's
// code, keeps the spans in memory, writes them to .bench_build/spans and
// derives the per-layer table from them. NOTES.md gives the workloads'
// rationale, the predictions later changes are held to, and the measured
// run-to-run spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

const (
	buildDir     = ".bench_build"
	scdisdBin    = buildDir + "/bin/scdisd"
	fixtureCache = buildDir + "/fixtures"

	// clients is the closed-loop client count of every workload; each holds
	// one loopback connection.
	clients = 2
	// setupStarts is how many times each run execs scdisd to time set-up;
	// setup_s is their median.
	setupStarts = 5
	warmup      = time.Second
)

// workload is one fixed traffic mix. Pool sizes and the rewrite count are
// constants: nothing adapts at run time.
type workload struct {
	name  string
	names []string // served template names; template i is served from files[i]
	files []string
	batch int  // traces per request
	pool  int  // distinct request bodies (batches) per template
	json  bool // JSON bodies instead of the binary frame

	// reloadEvery: every reloadEvery-th request (counted, not timed) the
	// generator rewrites one template file (write temp, rename) and POSTs
	// /admin/reload.
	reloadEvery int
}

var workloads = []workload{
	{
		name: "batch-256", names: []string{"regs"}, files: []string{fileRegs},
		batch: 256, pool: 16,
	},
	{
		name:  "fleet-json",
		names: []string{"fleet0", "fleet1", "fleet2", "fleet3", "fleet4", "fleet5", "fleet6", "fleet7"},
		files: []string{fileRegs, fileRegsQ, fileRegs, fileRegsQ, fileRegs, fileRegsQ, fileRegs, fileRegsQ},
		batch: 16, pool: 64, json: true,
		reloadEvery: 40,
	},
}

// jobIndex maps request i to its job: templates round-robin, and each
// template walks its pool of batches in order.
func (w *workload) jobIndex(i int) int {
	t := i % len(w.names)
	return t*w.pool + (i/len(w.names))%w.pool
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "reqbench: "+format+"\n", args...)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	info      []string          // table lines for figures that are not bounded metrics
}

func main() {
	name := flag.String("workload", "", "workload: batch-256 or fleet-json")
	seed := flag.Uint64("seed", 1, "fixture seed: templates, traces and arrivals derive from it")
	seconds := flag.Int("seconds", 35, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
	train := flag.String("train-fixture", "", "internal: train seed's templates into this directory and exit")
	flag.Parse()
	if *train != "" {
		if err := trainFixture(*train, *seed); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload {batch-256|fleet-json} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	printResult(res)
}

// fixture is a workload's prepared inputs: template files, trace stream
// and the request jobs with their reference decodes.
type fixture struct {
	dir    string   // cached fixture directory (regs.tpl, regs-q.tpl)
	stream *stream  // pool traces with ground truth
	jobs   []job    // len(names) * pool
	probes []job    // per template: a 1-trace request used for set-up timing
	files  [][]byte // per template: the file bytes, for rewrites
}

func prepare(w *workload, seed uint64) (*fixture, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, errors.New("run from the root of a repository checkout")
	}
	dir, ok, err := fixtureDir(".", fixtureCache, seed)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Training runs in a child process, so the heap and threads it
		// leaves behind never share a process with the measurement.
		logf("training fixture templates for seed %d", seed)
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "--seed", fmt.Sprint(seed), "--train-fixture", dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("training fixture: %w", err)
		}
	}
	s, err := genStream(seed, int64(len(w.name)), w.batch*w.pool)
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, stream: s}
	type ref struct {
		want  []core.Decision
		truth []bool
	}
	refs := map[string]ref{}
	for _, f := range w.files {
		if _, ok := refs[f]; ok {
			continue
		}
		want, truth, err := reference(filepath.Join(dir, f), s)
		if err != nil {
			return nil, err
		}
		refs[f] = ref{want, truth}
	}
	ctype := "application/octet-stream"
	bodies := make([][]byte, w.pool)
	for b := range bodies {
		traces := s.traces[b*w.batch : (b+1)*w.batch]
		if w.json {
			ctype = "application/json"
			if bodies[b], err = jsonBody(traces); err != nil {
				return nil, err
			}
		} else {
			bodies[b] = binaryBody(traces)
		}
	}
	contents := map[string][]byte{}
	for t, name := range w.names {
		r := refs[w.files[t]]
		path := "/v1/disassemble/" + name
		for b := 0; b < w.pool; b++ {
			lo, hi := b*w.batch, (b+1)*w.batch
			fx.jobs = append(fx.jobs, job{path: path, ctype: ctype, body: bodies[b], want: r.want[lo:hi], truth: r.truth[lo:hi]})
		}
		fx.probes = append(fx.probes, job{path: path, ctype: "application/octet-stream",
			body: binaryBody(s.traces[:1]), want: r.want[:1], truth: r.truth[:1]})
		if contents[w.files[t]] == nil {
			if contents[w.files[t]], err = os.ReadFile(filepath.Join(dir, w.files[t])); err != nil {
				return nil, err
			}
		}
		fx.files = append(fx.files, contents[w.files[t]])
	}
	return fx, nil
}

// templateDir lays the workload's templates out as a fresh scdisd
// template directory.
func templateDir(w *workload, fx *fixture, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for t, name := range w.names {
		if err := os.WriteFile(filepath.Join(dir, name+".tpl"), fx.files[t], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	prepStart := time.Now()
	fx, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	logf("%s seed %d: fixtures ready in %.1fs (%d jobs of %d traces)", w.name, seed,
		time.Since(prepStart).Seconds(), len(fx.jobs), w.batch)
	// The generator shares the CPUs with the daemon, and its own GC cycles
	// showed up in the measured latencies. From here on it collects only if
	// its heap reaches the limit; a run allocates far less.
	debug.FreeOSMemory()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(768 << 20)

	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	tplDir := filepath.Join(work, "templates")
	if err := templateDir(w, fx, tplDir); err != nil {
		return nil, err
	}
	if traced {
		return runTraced(w, fx, tplDir, seed, dur)
	}
	return runE2E(w, fx, tplDir, seed, dur)
}

// printResult writes the human-readable table and then, as the last line,
// the JSON result.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRatio := 0.0
	if res.Attempted > 0 {
		errRatio = float64(res.Failed) / float64(res.Attempted)
	}
	for _, line := range res.info {
		fmt.Println(line)
	}
	fmt.Printf("%-34s %14.6g %s   (%d of %d requests failed)\n", "error_ratio", errRatio, "ratio", res.Failed, res.Attempted)
	b, _ := json.Marshal(res) // a map of floats and strings cannot fail to encode
	fmt.Println(strings.TrimSpace(string(b)))
}
