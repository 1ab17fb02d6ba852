package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taxiqueue/internal/ingest"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// server is one queued child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{}
	client *http.Client // control requests: health, metrics, stats
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs queued with args and waits for its first /healthz 200;
// the returned duration runs from the exec to that answer.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := t0.Add(120 * time.Second); time.Now().Before(deadline); {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("queued exited before it was healthy (see %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.kill()
	return nil, 0, errors.New("queued never became healthy")
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// takes longer than a minute.
func (s *server) stop() error {
	defer s.log.Close()
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(time.Minute):
		s.kill()
		return errors.New("queued ignored SIGTERM for a minute")
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("queued exited with code %d", code)
	}
	return nil
}

// kill stops the process hard and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// procStat reads fields of /proc/<pid>/stat after the command name.
func procStat(pid int) ([]string, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return nil, errors.New("malformed /proc stat")
	}
	return strings.Fields(string(raw[i+1:])), nil
}

// cpu is the server's user+system CPU time in seconds.
func (s *server) cpu() (float64, error) {
	f, err := procStat(s.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	// Fields 14 and 15 of stat are utime and stime; f starts at field 3.
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (u + st) / clockTicks, nil
}

// hwmMB reads VmHWM, the peak resident set, of a /proc status file.
func hwmMB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func selfHWM() float64         { return hwmMB("self") }
func (s *server) hwm() float64 { return hwmMB(strconv.Itoa(s.cmd.Process.Pid)) }

// get fetches path and returns the body of a 200 answer.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *server) metrics() (scrape, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// ingestStats reads /ingest/stats, adding the per-shard dedup counts the
// payload only carries per shard.
func (s *server) ingestStats() (ingest.Stats, int64, error) {
	var st ingest.Stats
	body, err := s.get("/ingest/stats")
	if err != nil {
		return st, 0, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, 0, err
	}
	var dedup int64
	for _, sh := range st.Shards {
		dedup += sh.Deduped
	}
	return st, dedup, nil
}

// hostSteal is the machine's cumulative CPU steal in seconds.
func hostSteal() float64 {
	steal, _ := machineStat()
	return steal
}

// machineStat reads the machine-wide CPU steal and I/O wait seconds from
// /proc/stat (NaN when unreadable).
func machineStat() (steal, iowait float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return math.NaN(), math.NaN()
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return math.NaN(), math.NaN()
	}
	io, err1 := strconv.ParseFloat(f[5], 64)
	st, err2 := strconv.ParseFloat(f[8], 64)
	if errors.Join(err1, err2) != nil {
		return math.NaN(), math.NaN()
	}
	return st / clockTicks, io / clockTicks
}
