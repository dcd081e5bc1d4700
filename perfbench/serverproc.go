package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// serveFlags is the one production-shaped configuration every workload
// runs under: the answer cache, the deadline guard, the health breaker
// (always on) and the write-ahead log with checkpoints are all enabled.
var serveFlags = []string{
	"-cache-bytes", "16777216",
	"-query-budget-ms", "1000",
	"-checkpoint-every", "64",
	"-log-level", "warn",
}

// serverProc is one `pitract serve` child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	done chan struct{} // closed when the process has been waited for
}

var (
	procsMu sync.Mutex
	procs   = map[*serverProc]bool{}
)

// killAll stops every server still running; main calls it on every exit
// path, so no child outlives the benchmark.
func killAll() {
	procsMu.Lock()
	live := make([]*serverProc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procsMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

var listenRE = regexp.MustCompile(`listening on (\S+),`)

// startServer spawns `pitract serve` on a loopback port over data dir and
// returns once it is accepting connections.
func startServer(bin, dir string) (*serverProc, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data", dir}, serveFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, dir: dir, done: make(chan struct{})}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	addrCh := make(chan string, 1)
	go func() {
		// Read the banner for the bound address, then drain stdout so the
		// server never blocks on a full pipe; Wait follows EOF.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		procsMu.Lock()
		delete(procs, p)
		procsMu.Unlock()
		close(p.done)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("pitract serve exited before listening")
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("pitract serve did not report its address within 30s")
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop asks the server to drain and exit, killing it after 10s.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

var httpClient = &http.Client{Timeout: 60 * time.Second}

// do sends one control-plane request (registration, stats, scrape).
func (p *serverProc) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://"+p.addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// datasetInfo is the part of a registration response the benchmark checks.
type datasetInfo struct {
	Loaded  bool   `json:"loaded"`
	Version uint64 `json:"version"`
	Shards  int    `json:"shards"`
}

// register registers the workload's dataset and decodes the response.
func (p *serverProc) register(w *workload, body []byte) (datasetInfo, error) {
	status, b, err := p.do("POST", w.registerPath(), body)
	if err != nil {
		return datasetInfo{}, err
	}
	if status != http.StatusOK {
		return datasetInfo{}, fmt.Errorf("register: HTTP %d: %s", status, bytes.TrimSpace(b))
	}
	var info datasetInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return datasetInfo{}, fmt.Errorf("register: %w", err)
	}
	return info, nil
}
