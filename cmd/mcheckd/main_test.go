package main

import (
	"bytes"
	"flag"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// update is accepted so that `go test ./cmd/... -update` runs here too;
// this command has no golden files.
var _ = flag.Bool("update", false, "rewrite testdata/golden (none here)")

// lockedBuffer lets the test read the daemon's stdout while run() is
// still writing to it from another goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`mcheckd listening on (http://[^ ]+)`)

// End-to-end daemon lifecycle: boot on an ephemeral port, serve a real
// check over HTTP, then drain cleanly on SIGTERM with exit status 0.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-quiet",
			"-cache", t.TempDir(),
		}, out)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its listen line; output: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	client := &serve.Client{BaseURL: base}
	resp, err := client.Check(serve.Request{Row: "explore-anon", N: 3, K: 1})
	if err != nil {
		t.Fatalf("check against live daemon: %v", err)
	}
	if resp.Result.Status != "ok" {
		t.Fatalf("verdict = %q (%s), want ok", resp.Result.Status, resp.Result.Error)
	}

	// The daemon traps SIGTERM itself, so signalling our own process is
	// safe: the test binary keeps running and run() begins its drain.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (exit 0)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; output: %q", out.String())
	}
	if got := out.String(); !strings.Contains(got, "draining") || !strings.Contains(got, "drained") {
		t.Fatalf("drain messages missing from output: %q", got)
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-queue", "many"},
		{"stray-positional"},
	}
	for _, args := range cases {
		err := run(args, &bytes.Buffer{})
		if err == nil || !isUsageError(err) {
			t.Errorf("run(%v) = %v, want usage error", args, err)
		}
	}
}

func TestDaemonBadByteSizeFlag(t *testing.T) {
	err := run([]string{"-membudget", "lots"}, &bytes.Buffer{})
	if err == nil || !isUsageError(err) {
		t.Fatalf("run(-membudget lots) = %v, want usage error", err)
	}
}

func TestDaemonListenFailure(t *testing.T) {
	err := run([]string{"-addr", "256.256.256.256:1"}, &bytes.Buffer{})
	if err == nil || isUsageError(err) {
		t.Fatalf("run on unresolvable address = %v, want runtime error", err)
	}
}
