package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one scdisd child process listening on loopback. It runs with
// the daemon's default flags; only the template directory and the address
// are given.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *tailBuffer
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startDaemon execs scdisd and waits until it accepts connections.
func startDaemon(bin, tplDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: fmt.Sprintf("127.0.0.1:%d", port), logs: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-templates", tplDir, "-addr", d.addr)
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	// The daemon dies with the benchmark, even when the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting scdisd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("scdisd exited during start-up: %v\n%s", d.err, d.logs)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("scdisd did not listen on %s within 20s\n%s", d.addr, d.logs)
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 10 s.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("scdisd did not drain within 10s")
	}
	return d.exitErr()
}

func (d *daemon) exitErr() error {
	if d.err != nil {
		return fmt.Errorf("scdisd exited: %v\n%s", d.err, d.logs)
	}
	return nil
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// cpuTime reads the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after ") ".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	// Linux reports these in USER_HZ ticks, 100 per second on every
	// mainstream configuration.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS reads the daemon's VmHWM (peak resident set) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it: the daemon's log
// tail, printed when the daemon fails.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.b))
}

// newClient returns an HTTP client holding at most conns loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}
