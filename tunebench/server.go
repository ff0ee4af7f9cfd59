package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds how long a spawned server may take to answer
// /readyz; pre-training at quick scale takes about a second.
const readyTimeout = 60 * time.Second

// server is one streamtune serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
	// Setup is the time from spawning to /readyz answering 200.
	Setup time.Duration
}

// freePort reserves an ephemeral loopback port. The listener is closed
// before the server binds it; on loopback nothing else races for it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns streamtune serve with the deployment flags of the
// Dockerfile and systemd unit, checkpointing into a fresh directory
// under work, and waits for readiness.
func startServer(bin, work string, logTo *os.File) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	opsAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	ckpt, err := os.MkdirTemp(work, "checkpoints-")
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, "serve",
		"-addr", addr, "-metrics-addr", opsAddr,
		"-checkpoint-dir", ckpt, "-log-level", "info")
	s.cmd.Stdout, s.cmd.Stderr = logTo, logTo
	// Should the benchmark itself be killed, take the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(readyTimeout)
	for {
		// Probe the tenant listener: the ops listener can come up first.
		resp, err := probe.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("server exited before ready: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not ready within %v", readyTimeout)
		}
	}
}

// stop sends SIGTERM (a graceful drain with a final checkpoint) and
// waits for the process to exit, killing it if the drain hangs.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.exited:
		return err
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("server did not drain within 30s")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

// procUsage is a sample of the server's resource use from procfs.
type procUsage struct {
	CPU time.Duration // utime + stime
	RSS int64         // VmRSS, bytes
}

// usage reads the server's CPU time and resident set size.
func (s *server) usage() (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, err
	}
	// The kernel reports clock ticks at USER_HZ, 100 on Linux.
	u.CPU = time.Duration(utime+stime) * (time.Second / 100)

	status, err := os.Open(filepath.Join(dir, "status"))
	if err != nil {
		return u, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmRSS:") {
			kb, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				return u, err
			}
			u.RSS = kb << 10
		}
	}
	return u, sc.Err()
}

// sampleRSS samples the server's resident set size every interval
// until stop is closed, then returns the samples in MB.
func (s *server) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if u, err := s.usage(); err == nil {
			out = append(out, float64(u.RSS)/(1<<20))
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// waitContext sleeps until t or until ctx is done.
func waitContext(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
