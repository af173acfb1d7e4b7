package main

// Driving the product: build its commands from the checkout, run them as
// child processes, and read their resource use. End-to-end numbers come only
// from these surfaces — CLI output and the vectraced HTTP API.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot returns the checkout root: the nearest directory at or above the
// working directory that holds cmd/vectrace.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fi, err := os.Stat(filepath.Join(dir, "cmd", "vectrace")); err == nil && fi.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout found: cmd/vectrace is not in the working directory or above it")
		}
		dir = parent
	}
}

// buildProduct builds the three commands into dir. Build time is not
// measured.
func buildProduct(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/vectrace", "./cmd/vecbench", "./cmd/vectraced")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("build product: %v\n%s", err, out)
	}
	return nil
}

// buildDigest fingerprints the built commands, so output digests recorded
// by one build are never held against another.
func buildDigest(dir string) (string, error) {
	h := sha256.New()
	for _, name := range []string{"vectrace", "vecbench", "vectraced"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// childRun is one finished product process.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	stdout []byte
}

// runChild runs one product command to completion in dir. A nonzero exit is
// an error carrying the command's standard error.
//
// Commands run with GOMAXPROCS=1. On a small machine shared with other
// work, whether a second thread finds a free CPU varies from run to run by
// far more than the bounds the suite judges by; one thread measures the
// work itself. The service keeps the runtime's default: its concurrency is
// part of what it is measured for.
func runChild(dir, name string, args ...string) (childRun, error) {
	if err := resetPeakRSS(); err != nil {
		return childRun{}, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := childRun{wall: time.Since(start), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", filepath.Base(name), strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return r, nil
}

// resetPeakRSS returns this process's free memory to the system and resets
// its peak resident set to the current one. On Linux a child starts as a
// vfork of this process and its rusage peak counts this process's peak at
// exec time, so without the reset a child would report at least the suite's
// own peak — the traced run's, or the service client's buffers.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// server is one running vectraced child.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	ready time.Duration // exec until the first /healthz 200
	// stderr collects the daemon's diagnostics; read it only after
	// drained is closed.
	stderr  bytes.Buffer
	drained chan struct{}
}

// startServer starts vectraced on a free loopback port and waits until it
// answers /healthz.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{drained: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	// The daemon names its address on its first stderr line.
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && s.stderr.Len() == 0 {
				addr <- strings.TrimSpace(line[i:])
			}
			s.stderr.WriteString(line + "\n")
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, s.fail("vectraced exited before naming its address")
		}
		s.base = a
	case <-time.After(30 * time.Second):
		return nil, s.fail("vectraced did not name its address within 30s")
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, s.fail("vectraced never answered /healthz")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fail kills a daemon that did not come up and returns msg with its stderr.
func (s *server) fail(msg string) error {
	s.cmd.Process.Kill() //nolint:errcheck // it may already have exited
	<-s.drained
	s.cmd.Wait() //nolint:errcheck // the start failure is the error reported
	return fmt.Errorf("%s: %s", msg, strings.TrimSpace(s.stderr.String()))
}

// stop reads the daemon's peak resident set, sends SIGTERM, and waits for
// the drain. It returns the peak RSS in MB and the process's CPU time.
func (s *server) stop() (rssMB float64, cpu time.Duration, err error) {
	rssMB = vmHWM(s.cmd.Process.Pid)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return rssMB, 0, s.fail(err.Error())
	}
	select {
	case <-s.drained:
	case <-time.After(60 * time.Second):
		return rssMB, 0, s.fail("vectraced did not drain within 60s")
	}
	err = s.cmd.Wait()
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if err != nil {
		err = fmt.Errorf("vectraced: %v: %s", err, strings.TrimSpace(s.stderr.String()))
	}
	return rssMB, cpu, err
}

// vmHWM reads a live process's peak resident set from /proc, in MB.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
