package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/decwi/decwi/internal/telemetry/metricsrv"
)

// childEnv makes the test binary run main() instead of the tests, so
// TestSmokeMetrics drives the real flags and metrics wiring without a
// separate build.
const childEnv = "DECWI_GAMMAGEN_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logBuffer is the child's stderr: the child's copier writes while the
// test reads.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSmokeMetrics runs decwi-gammagen -parallel with the observability
// server on an ephemeral port and, once the run is done and the server
// lingers, validates its /metrics exposition, /healthz and two /snapshot
// scrapes.
func TestSmokeMetrics(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-n", "200000", "-parallel", "-validate=false",
		"-http", "127.0.0.1:0", "-http-linger", "30s", "-out", filepath.Join(t.TempDir(), "out.f32"))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	log := &logBuffer{}
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Errorf("decwi-gammagen child %d outlived its test", cmd.Process.Pid)
		}
	})

	// The server binds before the run and announces its address; the
	// run's summary line says every instrument has been recorded.
	metricsLine := regexp.MustCompile(`metrics on (http://\S+)/metrics`)
	var base string
	for deadline := time.Now().Add(60 * time.Second); ; {
		out := log.String()
		if m := metricsLine.FindStringSubmatch(out); m != nil && strings.Contains(out, " chunks on ") {
			base = m[1]
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("decwi-gammagen exited before its run finished: %v\n%s", err, out)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no metrics address and run summary:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	counters, gauges, hists, err := metricsrv.CheckExposition(get("/metrics"))
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if counters < 3 || gauges < 1 || hists < 1 {
		t.Fatalf("%d counter, %d gauge, %d histogram families, want ≥ 3/1/1", counters, gauges, hists)
	}
	if got := get("/healthz"); got != "ok\n" {
		t.Fatalf("healthz body %q, want \"ok\\n\"", got)
	}
	for i := 1; i <= 2; i++ {
		counters, gauges, hists, err := metricsrv.CheckSnapshot([]byte(get("/snapshot")))
		if err != nil {
			t.Fatalf("scrape %d: invalid snapshot: %v", i, err)
		}
		if i == 2 && (counters < 3 || gauges < 1 || hists < 1) {
			t.Fatalf("%d counters, %d gauges, %d histograms, want ≥ 3/1/1", counters, gauges, hists)
		}
	}
}
