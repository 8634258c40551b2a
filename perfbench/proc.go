package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is the rdfanalytics server running as a child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	setup  time.Duration
}

// startServer execs the server on a free loopback port with args and waits
// until /readyz answers 200. setup is the time from exec to that answer.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the server, the kernel kills
	// the server too, so no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				probe.CloseIdleConnections()
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("server exited during start-up (%v); see %s", p.err, logPath)
		case <-time.After(500 * time.Microsecond):
		}
	}
	p.kill()
	return nil, fmt.Errorf("server not ready within 60s; see %s", logPath)
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to drain with SIGTERM and kills it if it has not
// exited after ten seconds. It returns once the process has ended.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

// kill ends the server with SIGKILL, as a crash would, and waits for it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// client is one load-generator connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	body   []byte
	cache  string // X-Cache header
	err    error
}

func (c *client) do(method, path, session, contentType string, body []byte) reply {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if session != "" {
		req.Header.Set("X-Session", session)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Cache"), err: err}
}

func (c *client) close() { c.hc.CloseIdleConnections() }
