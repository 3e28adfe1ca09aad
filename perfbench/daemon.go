package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one psid child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	logs   chan struct{}
	stderr strings.Builder // psid's log lines after the listen line
}

// startDaemon launches psid on a free loopback port with workers
// workers and returns once /readyz answers 200.
func startDaemon(workers int) (*daemon, error) {
	cmd := child(filepath.Join(binDir, "psid"),
		"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start psid: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logs)
		sc := bufio.NewScanner(pipe)
		listening := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "psid: listening on "); ok && !listening {
				listening = true
				addr <- a
				continue
			}
			d.stderr.WriteString(line + "\n")
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("psid exited before listening: %s", d.stderr.String())
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("psid did not report its address within 30s")
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("psid not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stats reads the daemon's admission counters from /healthz.
func (d *daemon) stats(hc *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := hc.Get(d.base + "/healthz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its peak resident set in MB (the kernel's max RSS for the child).
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signal psid: %w", err)
	}
	done := make(chan error, 1)
	go func() { <-d.logs; done <- d.cmd.Wait() }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("psid exit: %w: %s", err, d.stderr.String())
		}
	case <-ctx.Done():
		d.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("psid did not drain within 60s")
	}
	return maxRSSMB(d.cmd), nil
}

// kill ends the daemon on an error path and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logs
	d.cmd.Wait()
}

// maxRSSMB is a finished child's peak resident set (ru_maxrss, KiB on
// Linux) in MB.
func maxRSSMB(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// child is exec.Command for a process that must not outlive the
// benchmark: the kernel kills it if the benchmark dies first.
func child(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}
