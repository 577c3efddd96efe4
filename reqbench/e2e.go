package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// runE2E measures the end-to-end metrics against an scdisd child process.
func runE2E(w *workload, fx *fixture, tplDir string, seed uint64, dur time.Duration) (*result, error) {
	client := newClient(clients)
	defer client.CloseIdleConnections()

	// Set-up: exec scdisd, then one 1-trace decode per template. The last
	// start stays up and serves the load.
	var setups []float64
	var d *daemon
	for k := 0; k < setupStarts; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(scdisdBin, tplDir); err != nil {
			return nil, err
		}
		probe := &loader{client: client, base: "http://" + d.addr, jobs: fx.probes}
		for t := range fx.probes {
			if err := probe.one(t); err != nil {
				d.stop()
				return nil, fmt.Errorf("set-up decode of %s: %w", w.names[t], err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		client.CloseIdleConnections()
	}
	defer d.stop()

	l := &loader{client: client, base: "http://" + d.addr, jobs: fx.jobs}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	rw := &rewriter{w: w, fx: fx, dir: tplDir, client: client, base: l.base}
	if err := firstErr(drive(w, l, rw, warmup)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	samples := drive(w, l, rw, dur)
	secs := time.Since(t0).Seconds()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	served, correctLabels := 0, 0 // traces in successful responses; of those, label matches truth
	for i := range samples {
		s := &samples[i]
		res.Attempted++
		if !s.ok() {
			res.Failed++
			continue
		}
		for _, ok := range fx.jobs[s.job].truth {
			served++
			if ok {
				correctLabels++
			}
		}
	}
	if err := firstErr(samples); err != nil {
		logf("failure: %v", err)
		res.Correct = false
	}
	if rw.failed > 0 {
		res.Correct = false
	}
	res.Attempted += rw.done
	res.Failed += rw.failed
	if !d.alive() {
		return nil, fmt.Errorf("scdisd died under load: %v", d.exitErr())
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	var lat []float64
	for i := range samples {
		if s := &samples[i]; s.ok() {
			lat = append(lat, ms(s.latency()))
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no successful requests")
	}
	logf("%d requests ok, %d traces", len(lat), served)
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	how := fmt.Sprintf("median of per-%d-request p99s", p99Window)
	if len(lat) < p99Window {
		how = fmt.Sprintf("p99 of %d requests", len(lat))
	}
	res.info = append(res.info, fmt.Sprintf("%-34s %14.6g ms   (%s; not a bounded metric, see NOTES.md)",
		"latency_p99_ms", windowedP99(lat), how))
	m["goodput_rps"] = metric{float64(len(lat)) / secs, "req/s"}
	m["traces_per_s"] = metric{float64(served) / secs, "traces/s"}
	m["cpu_ms_per_ktrace"] = metric{ms(cpu1-cpu0) / float64(served) * 1000, "ms"}
	m["rss_peak_mb"] = metric{float64(rss) / (1 << 20), "MiB"}
	m["label_accuracy"] = metric{float64(correctLabels) / float64(served), "ratio"}
	return res, nil
}

// drive runs the workload's clients back to back for dur. Every
// reloadEvery-th request (counted, not timed) triggers a template rewrite;
// drive returns once every rewrite it triggered has finished.
func drive(w *workload, l *loader, rw *rewriter, dur time.Duration) []sample {
	defer rw.wait()
	return l.closedLoop(clients, dur, w.jobIndex, func(i int) {
		if w.reloadEvery > 0 && (i+1)%w.reloadEvery == 0 {
			rw.trigger()
		}
	})
}

// p99Window is the request count each p99 is taken over: ten samples lie
// beyond it.
const p99Window = 1000

// windowedP99 is the median, over consecutive windows of p99Window
// latencies in completion order, of each window's p99; a phase too short
// for one window reports its plain p99. Stalls of the shared host that
// last a fraction of a second move one window's p99, not the median.
// batch-256 completes about 1000 requests in a 35 s run.
func windowedP99(lat []float64) float64 {
	if len(lat) < p99Window {
		return quantile(lat, 0.99)
	}
	var ps []float64
	for lo := 0; lo+p99Window <= len(lat); lo += p99Window {
		ps = append(ps, quantile(lat[lo:lo+p99Window], 0.99))
	}
	return median(ps)
}

// rewriter replaces template files while the load runs: the file is written
// under a temporary name and renamed over the served one (a new inode, so
// pages the daemon has mapped stay valid), then /admin/reload is POSTed.
// Rewriting in place instead kills the daemon with SIGBUS; that is a fault
// to inject against the store, not a load, and is left out here.
type rewriter struct {
	w      *workload
	fx     *fixture
	dir    string
	client *http.Client
	base   string

	wg   sync.WaitGroup
	mu   sync.Mutex // serializes rewrites; guards next, done and failed
	next int        // template rewritten next, round-robin

	done, failed int
}

// trigger starts one rewrite without blocking the calling client:
// rewrites run one at a time, in the background.
func (rw *rewriter) trigger() {
	rw.wg.Add(1)
	go func() {
		defer rw.wg.Done()
		rw.mu.Lock()
		defer rw.mu.Unlock()
		rw.done++
		if err := rw.rewrite(); err != nil {
			rw.failed++
			logf("template rewrite: %v", err)
		}
	}()
}

func (rw *rewriter) rewrite() error {
	if err := rw.replace(); err != nil {
		return err
	}
	resp, err := rw.client.Post(rw.base+"/admin/reload", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: status %d", resp.StatusCode)
	}
	return nil
}

// replace rewrites the next template file, round-robin: written under a
// temporary name the registry ignores, then renamed over the served file.
func (rw *rewriter) replace() error {
	t := rw.next
	rw.next = (rw.next + 1) % len(rw.w.names)
	tmp := filepath.Join(rw.dir, ".rewrite.tmp")
	if err := os.WriteFile(tmp, rw.fx.files[t], 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(rw.dir, rw.w.names[t]+".tpl"))
}

// wait blocks until every triggered rewrite has finished.
func (rw *rewriter) wait() { rw.wg.Wait() }
