package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"taxiqueue/internal/obs"
)

// TestMain lets the test binary stand in for queued: with QUEUED_AS_MAIN
// set it runs main() on its own arguments, so a test can drive the real
// process start-up, signal handling and exit code.
func TestMain(m *testing.M) {
	if os.Getenv("QUEUED_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestHeaderTrickleCutOff: a client that sends its request header a byte
// at a time never gets an answer; the server drops the connection once the
// header deadline passes. The deadline is shortened here to keep the test
// fast; the production value is checked separately.
func TestHeaderTrickleCutOff(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout ||
		hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("server limits not set: %+v", hs)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatal("whole-request deadlines would cut backpressured /ingest POSTs")
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		header := "GET / HTTP/1.1\r\nHost: x\r\nX-Slow: " + strings.Repeat("a", 1000)
		for i := range header {
			if _, err := conn.Write([]byte{header[i]}); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the server never cut off a client trickling its header")
	}
	if strings.Contains(string(got), "200 OK") {
		t.Fatalf("trickled request was answered: %q", got)
	}
}

// TestBatchSIGTERMClosesHistory runs queued in batch mode with a history
// store, sends SIGTERM, and checks the process exits 0 through the
// shutdown path and that the history store reopens without a truncation.
func TestBatchSIGTERMClosesHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a queued process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-scale", "0.1", "-minpts", "25", "-history", dir)
	cmd.Env = append(os.Environ(), "QUEUED_AS_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "queued: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		resp, err := http.Get("http://" + a + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	case <-time.After(2 * time.Minute):
		t.Fatal("queued never started listening")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-logDone: // the process closed its stderr: it has exited
	case <-time.After(time.Minute):
		t.Fatal("queued ignored SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("queued did not exit cleanly on SIGTERM: %v", err)
	}

	srv := newServer(obs.NewRegistry())
	if err := srv.recompute(1, 0.1, 25); err != nil {
		t.Fatal(err)
	}
	hist, err := newHistoryStore(dir, srv.result(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	if st := hist.Stats(); st.Truncations != 0 || st.Records == 0 {
		t.Fatalf("history after SIGTERM: %d truncations, %d records", st.Truncations, st.Records)
	}
}
